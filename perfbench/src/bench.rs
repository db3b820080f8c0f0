//! What each workload adds to the generic measurement protocol: its
//! layer replays (the host-time ledger) and the checks and measurements
//! it needs beyond timed runs.

use std::collections::BTreeMap;

use pandora_segment::wire;

use crate::broadcast::{self, Broadcast};
use crate::calib::Meter;
use crate::conference::Conference;
use crate::replay;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::videophone::{self, Videophone};
use crate::workload::{self, Outcome, Workload};

/// What a workload adds to the generic protocol: its layer replays and
/// any measurement it needs beyond one timed run.
pub trait Bench: Workload {
    const NAME: &'static str;
    /// Executor shards the workload runs on.
    const SHARDS: usize = 1;
    /// Per-layer metrics this workload does not exercise at all; they
    /// read 0. Any other metric missing from a traced run is an error.
    const NOT_EXERCISED: &'static [&'static str];

    /// Replays each layer at the shape the run `out` of seed `seed` used.
    fn ledger(seed: u64, out: &Outcome, tracer: &mut Tracer) -> Ledger;

    /// Checks and measurements beyond the timed runs, given the first
    /// run's outcome and the raw setup time (lower quartile); the
    /// expensive ones only when traced.
    fn extras(_seed: u64, _setup_raw_s: f64, _tracer: Option<&mut Tracer>, _out: &mut Outcome) {}
}

/// A ledger: `(share metric, host ns the layer accounts for in one run)`
/// and `(cost metric, host ns per unit)`.
pub type Ledger = (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>);

/// Replays the star workloads share: camera, mixer, wire, ATM and the
/// switch's PRI ALT.
fn star_ledger(out: &Outcome, tracer: &mut Tracer, video: bool) -> Ledger {
    let u = &out.units;
    let audio = replay::audio_segment(2);
    let vseg = replay::video_segment(
        videophone::WINDOW.rect.width,
        videophone::WINDOW.lines_per_segment,
    );
    let camera = tracer.span("replay.camera", replay::camera_frame_ns);
    let mix: f64 = tracer.span("replay.mix", || {
        let mut cost = BTreeMap::new();
        u.mix_ticks
            .iter()
            .map(|&(streams, ticks)| {
                *cost
                    .entry(streams)
                    .or_insert_with(|| replay::mix_tick_ns(streams))
                    * ticks as f64
            })
            .sum()
    });
    let (a_enc, a_dec) = tracer.span("replay.wire", || replay::wire_ns(&audio));
    let (a_atm, a_cells) = tracer.span("replay.atm", || replay::atm_ns(&wire::encode(&audio)));
    let mut wire = a_enc * u.audio_out as f64 + a_dec * u.audio_in as f64;
    let mut atm = a_atm * u.audio_in as f64;
    let mut cells = a_cells as f64 * u.audio_in as f64;
    let mut dpcm = 0.0;
    if video {
        let (v_enc, v_dec) = tracer.span("replay.wire", || replay::wire_ns(&vseg));
        let (v_atm, v_cells) = tracer.span("replay.atm", || replay::atm_ns(&wire::encode(&vseg)));
        let (comp, decomp) = tracer.span("replay.dpcm", || {
            replay::dpcm_ns(
                videophone::WINDOW.rect.width as usize,
                videophone::WINDOW.lines_per_segment as usize,
            )
        });
        wire += v_enc * u.video_out as f64 + v_dec * u.video_in as f64;
        atm += v_atm * u.video_in as f64;
        cells += v_cells as f64 * u.video_in as f64;
        dpcm = comp * u.dpcm_compress as f64 + decomp * u.dpcm_decompress as f64;
    }
    let alt = tracer.span("replay.alt_fanin", || replay::alt_fanin_ns(u.alt_width, 1));
    let segments = (u.audio_out + u.audio_in + u.video_out + u.video_in).max(1) as f64;
    (
        vec![
            ("core.camera.host_share", camera * u.camera_frames as f64),
            ("audio.mix.host_share", mix),
            ("segment.wire.host_share", wire),
            ("atm.burst.host_share", atm),
            ("video.dpcm.host_share", dpcm),
            ("sim.alt_fanin.host_share", alt * u.alt_completions as f64),
        ],
        vec![
            ("atm.host_ns_per_cell", atm / cells.max(1.0)),
            ("segment.wire_host_ns", wire / segments),
            ("sim.alt_fanin_host_ns", alt),
        ],
    )
}

impl Bench for Conference {
    const NAME: &'static str = "conference16";
    const NOT_EXERCISED: &'static [&'static str] = &[
        "video.slices_per_sim_s",
        "video.dpcm.host_share",
        "recover.hub_deaths",
        "overlay.grafts",
        "overlay.dupes",
        "overlay.gap_skips",
        "overlay.p3_drops",
        "overlay.p8_skips",
        "overlay.forwarded_per_sim_s",
        "overlay.hello.host_share",
        "overlay.plan.setup_share",
    ];

    fn ledger(_seed: u64, out: &Outcome, tracer: &mut Tracer) -> Ledger {
        star_ledger(out, tracer, false)
    }
}

impl Bench for Videophone {
    const NAME: &'static str = "videophone";
    const NOT_EXERCISED: &'static [&'static str] = &[
        "recover.hub_deaths",
        "overlay.grafts",
        "overlay.dupes",
        "overlay.gap_skips",
        "overlay.p3_drops",
        "overlay.p8_skips",
        "overlay.forwarded_per_sim_s",
        "overlay.hello.host_share",
        "overlay.plan.setup_share",
    ];

    fn ledger(_seed: u64, out: &Outcome, tracer: &mut Tracer) -> Ledger {
        star_ledger(out, tracer, true)
    }
}

impl Bench for Broadcast {
    const NAME: &'static str = "broadcast1024";
    const SHARDS: usize = broadcast::SHARDS;
    const NOT_EXERCISED: &'static [&'static str] = &[
        "core.camera_frames_per_sim_s",
        "core.camera.host_share",
        "core.switch_forwarded",
        "core.net_out_cells",
        "core.net_in_frames_discarded",
        "core.late_ticks",
        "core.concealed",
        "core.display_frames_dropped",
        "core.net_audio_wait_p50_us",
        "core.cpu_util_max",
        "buffers.clawback_empty_ticks",
        "buffers.clawback_clawed_back",
        "buffers.decoupling_high_watermark_max",
        "buffers.pool_exhausted_waits",
        "slab.alloc_failures",
        "slab.arena_mb",
        "atm.switch_overflow",
        "atm.injected_drops",
        "segment.wire_host_ns",
        "segment.wire.host_share",
        "audio.mix.host_share",
        "video.slices_per_sim_s",
        "video.dpcm.host_share",
        "session.reconfigs",
        "session.rejections",
        "session.timeouts",
        "session.msgs_handled",
    ];

    fn ledger(seed: u64, out: &Outcome, tracer: &mut Tracer) -> Ledger {
        let u = &out.units;
        let cfg = broadcast::config(stats::mix(seed, 1));
        let hello = tracer.span("replay.hello", || {
            pandora_overlay::plan_for(&cfg)
                .map(|plan| replay::hello_ns(&plan, cfg.lease))
                .unwrap_or(f64::NAN)
        });
        let alt = tracer.span("replay.alt_fanin", || {
            replay::alt_fanin_ns(u.alt_width, u.alt_width)
        });
        // The source gathers each segment (a 4-byte sequence header and
        // the payload) into one burst once; relays forward refcounted
        // handles without re-cutting.
        let frame = vec![0x5A; 4 + cfg.payload_bytes];
        let (atm, cells) = tracer.span("replay.atm", || replay::atm_ns(&frame));
        (
            vec![
                ("overlay.hello.host_share", hello * u.hellos as f64),
                ("sim.alt_fanin.host_share", alt * u.alt_completions as f64),
                ("atm.burst.host_share", atm * f64::from(cfg.segments)),
            ],
            vec![
                ("atm.host_ns_per_cell", atm / cells as f64),
                ("sim.alt_fanin_host_ns", alt),
            ],
        )
    }

    fn extras(seed: u64, setup_raw_s: f64, tracer: Option<&mut Tracer>, out: &mut Outcome) {
        // The merged trace must not depend on the shard count.
        let digest = out.count("trace_digest");
        match Broadcast::build(seed, 1, None, None) {
            Ok(mut b) => {
                b.run(&mut Meter::new(None, 1));
                out.gate(
                    "merged trace identical at 1 and 2 shards",
                    digest.is_some() && b.outcome().count("trace_digest") == digest,
                );
            }
            Err(e) => out.gate(format!("1-shard build: {e}"), false),
        }
        let Some(tracer) = tracer else {
            return;
        };
        let cfg = broadcast::config(stats::mix(seed, 1));
        let plans: Vec<f64> = (0..3)
            .map(|_| {
                let id = tracer.begin("setup.plan");
                let _ = pandora_overlay::plan_for(&cfg);
                tracer.end(id) as f64 / 1e9
            })
            .collect();
        out.layer
            .push(("overlay.plan.setup_share", median(&plans) / setup_raw_s));
        // Normalised ms of one soak on `shards` shards to `deadline`.
        let mut soak = |shards: usize, deadline: Option<pandora_sim::SimTime>, name: &str| {
            let mut b = Broadcast::build(seed, shards, deadline, None).ok()?;
            let id = tracer.begin(name);
            let mut meter = Meter::new(Some(&mut *tracer), shards);
            b.run(&mut meter);
            let ms = meter.norm_ms;
            tracer.end(id);
            Some(ms)
        };
        // Sync overhead: the same soak at 2 shards over 1 shard.
        let mut ratios = Vec::new();
        for _ in 0..3 {
            match (
                soak(1, None, "shards1"),
                soak(broadcast::SHARDS, None, "shards2"),
            ) {
                (Some(one), Some(two)) => ratios.push(two / one),
                _ => {
                    out.gate("shard-count build failed", false);
                    return;
                }
            }
        }
        out.layer
            .push(("shard.sync_overhead_ratio", median(&ratios)));
        // Windows: the cluster runs to its deadline in one call, so a
        // window's cost is the difference of two prefix runs.
        let step = workload::WINDOW.as_nanos();
        let (mut prev, mut worst, mut end) = (0.0, 0.0f64, step);
        while end <= broadcast::deadline(&cfg).as_nanos() {
            let deadline = pandora_sim::SimTime::from_nanos(end);
            let Some(ms) = soak(broadcast::SHARDS, Some(deadline), "prefix") else {
                out.gate("prefix build failed", false);
                return;
            };
            worst = worst.max(ms - prev);
            prev = ms;
            end += step;
        }
        out.layer.push(("sim.window_host_ms_max", worst));
    }
}
