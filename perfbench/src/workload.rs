//! What every workload hands back after one run, and the per-box counter
//! sweep the two `Star`-based workloads share.

use pandora_metrics::Histogram;
use pandora_session::Star;
use pandora_sim::SimDuration;

use crate::calib::Meter;
use crate::stats::quantiles;
use crate::trace::Tracer;

/// A virtual-time end-to-end metric: deterministic for a seed.
#[derive(Debug, Clone)]
pub struct Virt {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// How many units of work each replayed layer did in one run: the
/// ledger multiplies these by the replayed per-unit host cost.
#[derive(Debug, Clone, Default)]
pub struct Units {
    /// Camera test-pattern frames rendered, all boxes.
    pub camera_frames: u64,
    /// `(active streams, speaker ticks)` per box.
    pub mix_ticks: Vec<(usize, u64)>,
    /// Video segments compressed at capture / decompressed at display.
    pub dpcm_compress: u64,
    pub dpcm_decompress: u64,
    /// Audio and video segments a network board sent (one header
    /// encode each) and received (one cell reassembly, switch copy and
    /// slab decode each).
    pub audio_out: u64,
    pub video_out: u64,
    pub audio_in: u64,
    pub video_in: u64,
    /// Heartbeats the overlay hub's repair engine absorbed.
    pub hellos: u64,
    /// Widest PRI ALT in the workload and how many times it completed.
    pub alt_width: usize,
    pub alt_completions: u64,
}

/// Everything one run produced that the benchmark reports or checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated seconds the measured run phase covered.
    pub sim_s: f64,
    pub virt: Vec<Virt>,
    /// Exact deterministic counts: the same seed must reproduce them.
    pub counts: Vec<(&'static str, u64)>,
    /// Counts that also depend on thread timing: a sharded executor
    /// polls its ingress dispatcher once per lookahead slice, and how
    /// many slices a run takes depends on when each shard reads its
    /// neighbours' horizons. Repeats must agree within
    /// [`TIMING_TOLERANCE`].
    pub timing_counts: Vec<(&'static str, u64)>,
    /// Observations worth printing that are not failures.
    pub notes: Vec<String>,
    /// Per-layer values: the run's counters and virtual-time rates, plus
    /// any host timings a workload's extra measurements add.
    pub layer: Vec<(&'static str, f64)>,
    /// Correctness gates: `(what, held)`.
    pub gates: Vec<(String, bool)>,
    /// Operations the workload issued (control requests plus the run)
    /// and how many of them failed.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Control operations as `(name, start ns, end ns)` in virtual time.
    pub control_spans: Vec<(&'static str, u64, u64)>,
    pub units: Units,
}

impl Outcome {
    pub fn gate(&mut self, what: impl Into<String>, held: bool) {
        self.gates.push((what.into(), held));
    }

    /// An exact or thread-timing-dependent count, by name.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .chain(&self.timing_counts)
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Adds the median of a histogram of nanoseconds as `p50`, and its
    /// tail as `tail` when given, in ms. An empty histogram, or one too
    /// small for a tail, is a failed gate, never a zero.
    pub fn latency(&mut self, p50: &'static str, tail: Option<&'static str>, h: &mut Histogram) {
        let Some(q) = quantiles(h) else {
            self.gate(format!("{p50}: no samples recorded"), false);
            return;
        };
        self.virt(p50, "ms", q.p50 / 1e6, q.samples);
        let Some(tail) = tail else {
            return;
        };
        match q.tail {
            Some((p, v)) => {
                self.virt(tail, "ms", v / 1e6, q.samples);
                if let Some(last) = self.virt.last_mut() {
                    last.note = format!("p{p}");
                }
            }
            None => self.gate(
                format!(
                    "{tail}: {} samples leave no percentile with ten beyond it",
                    q.samples
                ),
                false,
            ),
        }
    }

    /// Adds a plain virtual metric.
    pub fn virt(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.virt.push(Virt {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        });
    }
}

/// Relative difference allowed between repeats' [`Outcome::timing_counts`].
pub const TIMING_TOLERANCE: f64 = 1e-4;

/// One benchmark workload: built from a seed, run once to its horizon.
pub trait Workload: Sized {
    /// Builds the topology and inputs. Spans go to `tracer` when given.
    fn setup(seed: u64, tracer: Option<&mut Tracer>) -> Result<Self, String>;
    /// Runs the scenario to its horizon, timing it in `meter`'s windows.
    fn run(&mut self, meter: &mut Meter);
    /// Collects metrics, counts and gates after [`Workload::run`].
    fn outcome(&self) -> Outcome;
}

/// Virtual-time window a sliced `Star` run is cut into.
pub const WINDOW: SimDuration = SimDuration::from_millis(100);

/// Runs `sim` to `horizon` in [`WINDOW`] slices, one meter window each.
pub fn run_sliced(
    sim: &mut pandora_sim::Simulation,
    horizon: pandora_sim::SimTime,
    meter: &mut Meter,
) {
    while sim.now() < horizon {
        let next = (sim.now() + WINDOW).min(horizon);
        meter.window("run.window", || sim.run_until(next));
    }
}

/// Sweeps every box of a `Star` for the core, buffers, slab, atm and
/// session counters. `sim_s` normalises the rates.
pub fn star_layers(out: &mut Outcome, star: &Star, polls: u64, spawned: u64, sim_s: f64) {
    let elapsed = SimDuration((sim_s * 1e9) as u64);
    let boxes: Vec<_> = star.nodes.iter().map(|n| &n.boxy).collect();
    let sum = |f: &dyn Fn(&pandora::PandoraBox) -> u64| -> u64 { boxes.iter().map(|b| f(b)).sum() };

    let camera_frames = sum(&|b| b.camera.frames());
    let forwarded = sum(&|b| b.switch_stats.forwarded());
    let cells = sum(&|b| b.net_out_stats.cells());
    let audio_out = sum(&|b| b.net_out_stats.audio_segments());
    let video_out = sum(&|b| b.net_out_stats.video_segments());
    let discarded = sum(&|b| b.net_in_stats.frames_discarded());
    let late = sum(&|b| b.speaker.late_ticks());
    let concealed = sum(&|b| b.speaker.concealed());
    let dropped_frames = sum(&|b| b.display.frames_dropped());
    let received = sum(&|b| b.speaker.segments_received());
    let lost = sum(&|b| b.speaker.segments_lost());
    let slab_bytes = sum(&|b| b.slab.copied_in_bytes() + b.slab.copied_out_bytes());
    let alloc_failures = sum(&|b| b.slab.alloc_failures());
    let arena_bytes = sum(&|b| (b.slab.capacity() * b.slab.slab_bytes()) as u64);
    let pool_waits = sum(&|b| b.pool.exhausted_waits());
    let empty_ticks = sum(&|b| b.speaker.clawback_stats().empty_ticks);
    let clawed = sum(&|b| b.speaker.clawback_stats().clawed_back);
    let high_water = boxes
        .iter()
        .flat_map(|b| b.buffer_handles())
        .map(|h| h.high_watermark())
        .max()
        .unwrap_or(0);
    let cpu_max = boxes
        .iter()
        .flat_map(|b| [&b.audio_cpu, &b.server_cpu, &b.capture_cpu, &b.mixer_cpu])
        .map(|c| c.utilisation(elapsed))
        .fold(0.0, f64::max);
    let mut wait = Histogram::new();
    for b in &boxes {
        wait.merge(&b.net_out_stats.audio_wait_ns());
    }
    let wait_p50_us = if wait.is_empty() {
        0.0
    } else {
        wait.percentile(50.0) / 1e3
    };
    let injected: u64 = star
        .path_controls()
        .iter()
        .map(|(_, c)| c.injected_drops())
        .sum();
    let handled: u64 = star.nodes.iter().map(|n| n.agent.handled()).sum();
    let ctl = &star.controller;

    out.counts.extend([
        ("polls", polls),
        ("tasks_spawned", spawned),
        ("camera_frames", camera_frames),
        ("net_out_cells", cells),
        ("segments_out", audio_out + video_out),
        ("segments_received", received),
        ("segments_lost", lost),
        ("slab_bytes_copied", slab_bytes),
        ("reconfigs", ctl.reconfigs()),
        ("msgs_handled", handled),
    ]);
    let segments = (audio_out + video_out).max(1) as f64;
    out.layer.extend([
        ("sim.polls_per_sim_s", polls as f64 / sim_s),
        ("sim.tasks_spawned", spawned as f64),
        ("core.camera_frames_per_sim_s", camera_frames as f64 / sim_s),
        ("core.switch_forwarded", forwarded as f64),
        ("core.net_out_cells", cells as f64),
        ("core.net_in_frames_discarded", discarded as f64),
        ("core.late_ticks", late as f64),
        ("core.concealed", concealed as f64),
        ("core.display_frames_dropped", dropped_frames as f64),
        ("core.net_audio_wait_p50_us", wait_p50_us),
        ("core.cpu_util_max", cpu_max),
        ("buffers.clawback_empty_ticks", empty_ticks as f64),
        ("buffers.clawback_clawed_back", clawed as f64),
        ("buffers.decoupling_high_watermark_max", high_water as f64),
        ("buffers.pool_exhausted_waits", pool_waits as f64),
        (
            "slab.copied_bytes_per_segment",
            slab_bytes as f64 / segments,
        ),
        ("slab.alloc_failures", alloc_failures as f64),
        ("slab.arena_mb", arena_bytes as f64 / (1024.0 * 1024.0)),
        ("atm.cells_per_sim_s", cells as f64 / sim_s),
        ("atm.switch_overflow", star.switch.overflow() as f64),
        ("atm.injected_drops", injected as f64),
        ("session.reconfigs", ctl.reconfigs() as f64),
        ("session.rejections", ctl.rejections() as f64),
        ("session.timeouts", ctl.timeouts() as f64),
        ("session.msgs_handled", handled as f64),
    ]);
    out.units.camera_frames = camera_frames;
    out.units.mix_ticks = boxes
        .iter()
        .map(|b| (b.speaker.max_active_streams(), b.speaker.ticks()))
        .collect();
    out.units.audio_out = audio_out;
    out.units.video_out = video_out;
    out.units.audio_in = received;
    out.units.video_in = sum(&|b| b.display.segments());
    out.units.dpcm_decompress = out.units.video_in;
    // The star switch runs one PRI ALT over every attachment per cell.
    out.units.alt_width = star.nodes.len() + 1;
    out.units.alt_completions = cells;
}
