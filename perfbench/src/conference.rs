//! `conference16`: a 16-box `Star` under session-control churn.
//!
//! Two `Speech` sources and an anchor listener joined to both; the other
//! 13 members join and leave either session on a seeded schedule. The
//! churn task is a closed loop: each operation starts [`STEP`] after
//! the previous one completed. The media is open loop in virtual time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use pandora_audio::gen::Speech;
use pandora_metrics::Histogram;
use pandora_session::{SessionError, Star, StarConfig, StreamClass};
use pandora_sim::{SimDuration, SimTime, Simulation};

use crate::calib::Meter;
use crate::stats::{mix, xorshift};
use crate::trace::Tracer;
use crate::workload::{run_sliced, star_layers, Outcome, Workload};

pub const BOXES: usize = 16;
/// Churn operations after the anchor joins.
pub const OPS: u64 = 100;
pub const STEP: SimDuration = SimDuration::from_millis(10);
/// Quiet time after the last operation, so its effects reach playback.
const TAIL: SimDuration = SimDuration::from_millis(250);
/// Each churn operation either grows or shrinks a session; rejections
/// are the only ones that do not reconfigure, and budgets fit all 13.
const RECONFIG_FLOOR: u64 = OPS * 9 / 10;

/// One control request as the churn task saw it, in virtual nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Op {
    name: &'static str,
    start: u64,
    end: u64,
    ok: bool,
}

pub struct Conference {
    sim: Simulation,
    star: Star,
    ops: Rc<RefCell<Vec<Op>>>,
    done: Rc<Cell<bool>>,
    horizon: SimTime,
}

fn now_ns() -> u64 {
    pandora_sim::now().as_nanos()
}

impl Workload for Conference {
    fn setup(seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let span = tracer.as_deref_mut().map(|t| t.begin("setup"));
        let sim = Simulation::new();
        let build = tracer.as_deref_mut().map(|t| t.begin("setup.star_build"));
        let star = Star::build(
            &sim.spawner(),
            BOXES,
            StarConfig {
                seed: mix(seed, 1),
                ..Default::default()
            },
        );
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), build) {
            t.end(id);
        }
        let mic0 = star.nodes[0]
            .boxy
            .start_audio_source(Box::new(Speech::new(mix(seed, 2))));
        let mic1 = star.nodes[1]
            .boxy
            .start_audio_source(Box::new(Speech::new(mix(seed, 3))));
        let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
        let controller = star.controller.clone();
        let ops = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        let (log, d) = (ops.clone(), done.clone());
        let mut rng = mix(seed, 4) | 1;
        sim.spawner().spawn("churn", async move {
            let record = |name, start, result: Result<(), SessionError>| {
                log.borrow_mut().push(Op {
                    name,
                    start,
                    end: now_ns(),
                    ok: result.is_ok(),
                });
            };
            let (Ok(s0), Ok(s1)) = (
                controller.open(endpoints[0], mic0, StreamClass::Audio),
                controller.open(endpoints[1], mic1, StreamClass::Audio),
            ) else {
                return;
            };
            for s in [s0, s1] {
                let start = now_ns();
                let r = controller.add_listener(s, endpoints[2]).await;
                record("control.add_listener", start, r.map(|_| ()));
            }
            let mut joined = [[false; 2]; BOXES];
            for _ in 0..OPS {
                pandora_sim::delay(STEP).await;
                let r = xorshift(&mut rng);
                let node = 3 + (r as usize % (BOXES - 3));
                let si = ((r >> 8) & 1) as usize;
                let sess = if si == 0 { s0 } else { s1 };
                let start = now_ns();
                if joined[node][si] {
                    let r = controller.remove_listener(sess, endpoints[node]).await;
                    joined[node][si] &= r.is_err();
                    record("control.remove_listener", start, r);
                } else {
                    let r = controller.add_listener(sess, endpoints[node]).await;
                    joined[node][si] = r.is_ok();
                    record("control.add_listener", start, r.map(|_| ()));
                }
            }
            d.set(true);
        });
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        // Operations take well under a millisecond on this clean fabric;
        // the horizon gives the closed loop a tenth of a step of slack per
        // operation, then the tail.
        let horizon = SimTime::ZERO + SimDuration(STEP.as_nanos() * 11 / 10 * OPS) + TAIL;
        Ok(Conference {
            sim,
            star,
            ops,
            done,
            horizon,
        })
    }

    fn run(&mut self, meter: &mut Meter) {
        run_sliced(&mut self.sim, self.horizon, meter);
    }

    fn outcome(&self) -> Outcome {
        let mut out = Outcome {
            sim_s: self.sim.now().as_nanos() as f64 / 1e9,
            ..Outcome::default()
        };
        let star = &self.star;
        let sim_s = out.sim_s;
        star_layers(
            &mut out,
            star,
            self.sim.context_switches(),
            self.sim.spawned_total(),
            sim_s,
        );

        let mut lat = Histogram::new();
        for n in &star.nodes {
            lat.merge(&n.boxy.speaker.latency_ns());
        }
        out.latency("latency_p50_ms", Some("latency_tail_ms"), &mut lat);
        let ops = self.ops.borrow();
        let mut control = Histogram::new();
        for op in ops.iter().filter(|op| op.ok) {
            control.record((op.end - op.start) as f64);
        }
        out.latency("control_p50_ms", Some("control_tail_ms"), &mut control);
        out.control_spans = ops.iter().map(|op| (op.name, op.start, op.end)).collect();

        let lost: u64 = star
            .nodes
            .iter()
            .map(|n| n.boxy.speaker.segments_lost())
            .sum();
        let late: u64 = star.nodes.iter().map(|n| n.boxy.speaker.late_ticks()).sum();
        let received: u64 = star
            .nodes
            .iter()
            .map(|n| n.boxy.speaker.segments_received())
            .sum();
        let failed_ops = ops.iter().filter(|op| !op.ok).count() as u64;
        let attempted = ops.len() as u64;
        out.virt(
            "failed_ratio",
            "ratio",
            (lost + late + failed_ops) as f64 / (received + lost + attempted).max(1) as f64,
            (received + lost + attempted) as usize,
        );
        out.ops_attempted = attempted + 1;
        out.ops_failed = failed_ops;

        out.gate("churn task finished", self.done.get());
        out.gate(
            format!("all {} control operations recorded", OPS + 2),
            attempted == OPS + 2,
        );
        out.gate(
            format!(
                "reconfigurations {} >= floor {RECONFIG_FLOOR}",
                star.controller.reconfigs()
            ),
            star.controller.reconfigs() >= RECONFIG_FLOOR,
        );
        out.gate(
            format!("{failed_ops} control operations refused or failed"),
            failed_ops == 0,
        );
        for (i, n) in star.nodes.iter().enumerate() {
            let s = &n.boxy.speaker;
            if s.segments_lost() != 0 || s.late_ticks() != 0 {
                out.gate(
                    format!(
                        "node{i}: {} lost, {} late",
                        s.segments_lost(),
                        s.late_ticks()
                    ),
                    false,
                );
            }
        }
        out.gate(
            "anchor heard both speakers",
            star.nodes[2].boxy.speaker.segments_received() > 0
                && star.nodes[2].boxy.speaker.max_active_streams() >= 2,
        );
        out
    }
}
