//! `videophone`: the duplex audio + video call of `examples/videophone.rs`.
//!
//! Two boxes, each sending `Speech` audio and a 256×192 DPCM camera
//! window at 2/5 rate to the other over the bursty, 1e-4-loss hop. Four
//! sessions are set up through the controller at time zero; after that
//! the media runs open loop in virtual time.

use std::cell::RefCell;
use std::rc::Rc;

use pandora::VideoCaptureHandle;
use pandora_atm::{HopConfig, JitterModel};
use pandora_audio::gen::Speech;
use pandora_metrics::Histogram;
use pandora_session::{point_to_point, Star, StarConfig, StreamClass};
use pandora_sim::{SimDuration, SimTime, Simulation};
use pandora_video::dpcm::LineMode;
use pandora_video::{CaptureConfig, RateFraction, Rect};

use crate::calib::Meter;
use crate::stats::mix;
use crate::trace::Tracer;
use crate::workload::{run_sliced, star_layers, Outcome, Workload};

/// Simulated length of the call.
pub const CALL: SimDuration = SimDuration::from_secs(5);

/// The camera window each side sends.
pub const WINDOW: CaptureConfig = CaptureConfig {
    rect: Rect {
        x: 64,
        y: 32,
        width: 256,
        height: 192,
    },
    rate: RateFraction { num: 2, den: 5 },
    lines_per_segment: 48,
    mode: LineMode::Dpcm,
};

/// Half the paper's §3.7.2 disturbance per attachment: the call crosses
/// two attachments in series.
fn hop() -> HopConfig {
    HopConfig {
        bits_per_sec: 50_000_000,
        latency: SimDuration::from_micros(250),
        jitter: JitterModel::Bursty {
            base: SimDuration::from_millis(1),
            burst: SimDuration::from_millis(10),
            burst_prob: 0.02,
        },
        loss: 0.0001,
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    start: u64,
    end: u64,
    rate_permille: Option<u32>,
}

pub struct Videophone {
    sim: Simulation,
    star: Star,
    captures: Vec<VideoCaptureHandle>,
    ops: Rc<RefCell<Vec<Op>>>,
    horizon: SimTime,
}

impl Workload for Videophone {
    fn setup(seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let span = tracer.as_deref_mut().map(|t| t.begin("setup"));
        let sim = Simulation::new();
        let build = tracer.as_deref_mut().map(|t| t.begin("setup.star_build"));
        let star = point_to_point(
            &sim.spawner(),
            StarConfig {
                hops: vec![hop()],
                seed: mix(seed, 1),
                ..Default::default()
            },
        );
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), build) {
            t.end(id);
        }
        let (alice, bob) = (&star.nodes[0], &star.nodes[1]);
        let a_mic = alice
            .boxy
            .start_audio_source(Box::new(Speech::new(mix(seed, 2))));
        let b_mic = bob
            .boxy
            .start_audio_source(Box::new(Speech::new(mix(seed, 3))));
        let (a_cam, a_handle) = alice.boxy.start_video_capture(WINDOW);
        let (b_cam, b_handle) = bob.boxy.start_video_capture(WINDOW);
        let controller = star.controller.clone();
        let (a_ep, b_ep) = (alice.endpoint, bob.endpoint);
        let ops = Rc::new(RefCell::new(Vec::new()));
        let log = ops.clone();
        let video = StreamClass::Video {
            rate_permille: 1000,
        };
        sim.spawner().spawn("host", async move {
            for (ep, stream, class, dst) in [
                (a_ep, a_mic, StreamClass::Audio, b_ep),
                (b_ep, b_mic, StreamClass::Audio, a_ep),
                (a_ep, a_cam, video, b_ep),
                (b_ep, b_cam, video, a_ep),
            ] {
                let Ok(session) = controller.open(ep, stream, class) else {
                    continue;
                };
                let start = pandora_sim::now().as_nanos();
                let r = controller.add_listener(session, dst).await;
                log.borrow_mut().push(Op {
                    start,
                    end: pandora_sim::now().as_nanos(),
                    rate_permille: r.ok().map(|a| a.rate_permille),
                });
            }
        });
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        Ok(Videophone {
            sim,
            star,
            captures: vec![a_handle, b_handle],
            ops,
            horizon: SimTime::ZERO + CALL,
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
        let slices: u64 = self.captures.iter().map(|c| c.slices()).sum();
        out.counts.push(("video_slices", slices));
        out.layer
            .push(("video.slices_per_sim_s", slices as f64 / out.sim_s));
        out.units.dpcm_compress = self.captures.iter().map(|c| c.segments()).sum();

        let (mut audio, mut video) = (Histogram::new(), Histogram::new());
        for n in &star.nodes {
            audio.merge(&n.boxy.speaker.latency_ns());
            video.merge(&n.boxy.display.latency_ns());
        }
        out.latency("latency_p50_ms", Some("latency_tail_ms"), &mut audio);
        out.latency("video_latency_p50_ms", None, &mut video);
        let ops = self.ops.borrow();
        let mut control = Histogram::new();
        for op in ops.iter() {
            control.record((op.end - op.start) as f64);
        }
        out.latency("control_p50_ms", None, &mut control);
        out.control_spans = ops
            .iter()
            .map(|op| ("control.add_listener", op.start, op.end))
            .collect();

        let boxes = || star.nodes.iter().map(|n| &n.boxy);
        let lost: u64 = boxes().map(|b| b.speaker.segments_lost()).sum();
        let late: u64 = boxes().map(|b| b.speaker.late_ticks()).sum();
        let received: u64 = boxes().map(|b| b.speaker.segments_received()).sum();
        let dropped: u64 = boxes().map(|b| b.display.frames_dropped()).sum();
        let shown: u64 = boxes().map(|b| b.display.frames_shown()).sum();
        let refused = ops.iter().filter(|o| o.rate_permille.is_none()).count() as u64;
        let units = received + lost + shown + dropped + ops.len() as u64;
        out.virt(
            "failed_ratio",
            "ratio",
            (lost + late + dropped + refused) as f64 / units.max(1) as f64,
            units as usize,
        );
        out.ops_attempted = ops.len() as u64 + 1;
        out.ops_failed = refused;

        out.gate(
            format!(
                "{} of 4 sessions admitted at full rate",
                ops.iter().filter(|o| o.rate_permille == Some(1000)).count()
            ),
            ops.len() == 4 && ops.iter().all(|o| o.rate_permille == Some(1000)),
        );
        for (i, b) in boxes().enumerate() {
            out.gate(
                format!("node{i} showed {} frames", b.display.frames_shown()),
                b.display.frames_shown() > 0,
            );
            out.gate(
                format!(
                    "node{i} heard {} audio segments",
                    b.speaker.segments_received()
                ),
                b.speaker.segments_received() > 0,
            );
        }
        out
    }
}
