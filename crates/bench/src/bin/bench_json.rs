//! `bench-json`: the tracked transport throughput suite.
//!
//! A hand-rolled wall-clock harness: each case is warmed up, then sampled
//! as calibrated batches; the median ns/op and derived ops/sec land in
//! `BENCH_transport.json` and `BENCH_session.json` at the current
//! directory — run it from the workspace root, as CI's `bench-smoke`
//! step does:
//!
//! ```text
//! cargo run --release -p pandora-bench --bin bench-json            # full
//! cargo run --release -p pandora-bench --bin bench-json -- --quick # smoke
//! ```
//!
//! The transport file also records the AAL legacy-vs-slab comparison the
//! zero-copy rework is tracked by, plus floor-free per-block audio
//! primitives (µ-law, muting, clawback) and executor primitives
//! (rendezvous, CPU claim, timer); the session file tracks the control
//! plane's hot paths (signalling codec, admission charging, directory
//! lookup); the recovery file (`BENCH_recovery.json`) tracks the
//! failure-recovery runtime — wall-clock op rates of the lease and
//! adaptation machines plus a *virtual-time* crash scenario sweep
//! (detection latency and reconvergence time vs heartbeat interval),
//! which is deterministic and byte-stable across hosts. The binary
//! exits nonzero when any suite is malformed (too few cases, a tracked
//! case missing, or a crash scenario that failed to reconverge).

use std::cell::Cell as StdCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use pandora_atm::{
    cells_gather, segment_to_burst, segment_to_cells, Cell, CellBurst, Reassembler,
    SlabReassembler, SwitchCore, Vci,
};
use pandora_audio::gen::{Signal, Speech, Tone};
use pandora_audio::{mix_blocks, mix_blocks_scalar, mulaw, Block, Muting, MutingConfig};
use pandora_buffers::{ByteSlab, Clawback, ClawbackConfig, Pool};
use pandora_faults::{install, FaultPlan, FaultTargets};
use pandora_recover::{AdaptMachine, HealthConfig, Lease, LeaseConfig, MediaClass, WindowSample};
use pandora_segment::{
    wire, AudioSegment, PixelFormat, Segment, SequenceNumber, SlabSegment, Timestamp,
    VideoCompression, VideoHeader, VideoSegment,
};
use pandora_session::{
    AdmissionController, Capabilities, ControllerConfig, Directory, EndpointRecord, SessionMsg,
    Star, StarConfig, StreamClass,
};
use pandora_sim::{channel, Cpu, Receiver, SimDuration, SimTime, Simulation};
use pandora_video::dpcm::{
    compress_line, compress_slice, decompress_line, decompress_slice, LineMode,
};
use pandora_video::{capture_rect, CaptureConfig, FrameStore, RateFraction, Rect, TestPattern};

/// Per-sample budget and sample count for one measurement pass.
#[derive(Clone, Copy)]
struct Budget {
    sample_ns: u128,
    samples: usize,
}

impl Budget {
    fn full() -> Budget {
        Budget {
            sample_ns: 2_000_000,
            samples: 31,
        }
    }

    fn quick() -> Budget {
        Budget {
            sample_ns: 200_000,
            samples: 7,
        }
    }
}

struct Case {
    name: &'static str,
    median_ns: f64,
    ops_per_sec: f64,
}

impl Case {
    /// The case whose time per operation is the median of `samples` (ns).
    fn from_samples(name: &'static str, mut samples: Vec<f64>) -> Case {
        samples.sort_by(|a, b| a.total_cmp(b));
        let median_ns = samples[samples.len() / 2];
        Case {
            name,
            median_ns,
            ops_per_sec: 1e9 / median_ns,
        }
    }
}

/// Times `f` in calibrated batches and returns the median ns per call.
fn measure(name: &'static str, budget: Budget, mut f: impl FnMut()) -> Case {
    // Probe once to size the batch so each sample fills its budget.
    let t0 = Instant::now();
    f();
    let probe = t0.elapsed().as_nanos().max(1);
    let batch = (budget.sample_ns / probe).clamp(1, 1_000_000) as u32;
    // Warm-up: one unrecorded sample.
    for _ in 0..batch {
        f();
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(budget.samples);
    for _ in 0..budget.samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    Case::from_samples(name, per_op)
}

/// Times two bodies as alternating samples in the same window, so slow
/// drift (frequency scaling, thermal state) hits both equally and the
/// ratio between them is meaningful. Returns the two cases in order.
fn measure_paired(
    names: (&'static str, &'static str),
    budget: Budget,
    mut f1: impl FnMut(),
    mut f2: impl FnMut(),
) -> (Case, Case) {
    let batch_for = |probe: u128| (budget.sample_ns / probe.max(1)).clamp(1, 1_000_000) as u32;
    let t0 = Instant::now();
    f1();
    let b1 = batch_for(t0.elapsed().as_nanos());
    let t0 = Instant::now();
    f2();
    let b2 = batch_for(t0.elapsed().as_nanos());
    // Warm-up: one unrecorded sample each.
    for _ in 0..b1 {
        f1();
    }
    for _ in 0..b2 {
        f2();
    }
    let mut per1: Vec<f64> = Vec::with_capacity(budget.samples);
    let mut per2: Vec<f64> = Vec::with_capacity(budget.samples);
    for _ in 0..budget.samples {
        let t0 = Instant::now();
        for _ in 0..b1 {
            f1();
        }
        per1.push(t0.elapsed().as_nanos() as f64 / f64::from(b1));
        let t0 = Instant::now();
        for _ in 0..b2 {
            f2();
        }
        per2.push(t0.elapsed().as_nanos() as f64 / f64::from(b2));
    }
    (
        Case::from_samples(names.0, per1),
        Case::from_samples(names.1, per2),
    )
}

fn audio_segment() -> Segment {
    Segment::Audio(AudioSegment::from_blocks(
        SequenceNumber(7),
        Timestamp(1234),
        vec![0x55; 32],
    ))
}

fn video_segment() -> Segment {
    let header = VideoHeader {
        frame_number: 3,
        segments_in_frame: 4,
        segment_number: 1,
        x_offset: 16,
        y_offset: 16,
        pixel_format: PixelFormat::Mono8,
        compression: VideoCompression::Dpcm,
        compression_args: vec![2],
        width: 384,
        start_line: 32,
        lines: 32,
        data_length: 0,
    };
    Segment::Video(VideoSegment::new(
        SequenceNumber(11),
        Timestamp(5678),
        header,
        vec![0x3Cu8; 12_288],
    ))
}

/// One legacy AAL round trip: encode owned, segment, reassemble, decode.
fn legacy_round_trip(seg: &Segment, vci: Vci, r: &mut Reassembler, seq: &mut u32) {
    let bytes = wire::encode(seg);
    let cells = segment_to_cells(vci, &bytes, *seq);
    *seq = seq.wrapping_add(cells.len() as u32);
    let mut out = None;
    for cell in cells {
        out = r.push(cell).or(out);
    }
    let (_, frame) = out.expect("frame completes");
    std::hint::black_box(wire::decode(&frame).expect("decodes"));
}

/// One slab AAL round trip: header into scratch, gather cells straight
/// from the slab, reassemble into the slab, decode in place.
fn slab_round_trip(
    sseg: &SlabSegment,
    vci: Vci,
    r: &mut SlabReassembler,
    seq: &mut u32,
    scratch: &mut [u8],
) {
    wire::encode_header_into(&sseg.header, scratch);
    let cells = sseg
        .payload
        .copy_out_with(|p| cells_gather(vci, scratch, p, *seq));
    *seq = seq.wrapping_add(cells.len() as u32);
    let mut out = None;
    for cell in cells {
        out = r.push(cell).or(out);
    }
    let (_, frame) = out.expect("frame completes");
    std::hint::black_box(wire::decode_slab(&frame).expect("decodes"));
}

fn run_cases(budget: Budget) -> Vec<Case> {
    let mut cases = Vec::new();
    let audio = audio_segment();
    let video = video_segment();
    let wire_bytes = wire::encode(&audio);

    cases.push(measure("wire_encode_audio", budget, || {
        std::hint::black_box(wire::encode(&audio));
    }));
    cases.push(measure("wire_decode_view_audio", budget, || {
        std::hint::black_box(wire::decode_view(&wire_bytes).expect("decodes"));
    }));
    cases.push(measure("wire_decode_owned_audio", budget, || {
        std::hint::black_box(wire::decode(&wire_bytes).expect("decodes"));
    }));

    // The legacy-vs-slab comparisons are measured as alternating samples
    // in a shared window, so the recorded speedup is drift-free.
    for (seg, names) in [
        (&audio, ("aal_round_trip_legacy", "aal_round_trip_slab")),
        (
            &video,
            ("aal_round_trip_legacy_video", "aal_round_trip_slab_video"),
        ),
    ] {
        let mut lr = Reassembler::new();
        let mut lseq = 0u32;
        // `slab` stays bound here so the arena handle outlives `sseg`'s
        // region reference (drop order is reverse declaration order).
        let slab = ByteSlab::new(8, 64 * 1024);
        let sseg = SlabSegment::from_segment(seg, &slab).expect("fits");
        let mut sr = SlabReassembler::new(slab.clone());
        let mut sseq = 0u32;
        let mut scratch = vec![0u8; sseg.header.header_wire_bytes()];
        let (legacy, slab_case) = measure_paired(
            names,
            budget,
            || legacy_round_trip(seg, Vci(9), &mut lr, &mut lseq),
            || slab_round_trip(&sseg, Vci(9), &mut sr, &mut sseq, &mut scratch),
        );
        cases.push(legacy);
        cases.push(slab_case);
    }

    {
        let slab = ByteSlab::new(8, 64 * 1024);
        let payload = vec![0xA5u8; 1024];
        cases.push(measure("slab_alloc_free", budget, || {
            std::hint::black_box(slab.try_alloc_copy(&payload).expect("free region"));
        }));
    }
    {
        let slab = ByteSlab::new(8, 64 * 1024);
        let pool: Pool<SlabSegment> = Pool::new(64);
        let sseg = SlabSegment::from_segment(&audio, &slab).expect("fits");
        cases.push(measure("pool_alloc_release", budget, || {
            let d = pool.try_alloc(sseg.clone()).expect("free buffer");
            std::hint::black_box(pool.release(d));
        }));
    }

    // Per-block audio primitives: the codec, the muting detector and the
    // clawback buffer each run once per 2 ms block per stream.
    let pcm: Vec<i16> = (0..16).map(|i| (i * 1000) as i16).collect();
    cases.push(measure("mulaw_encode_block_16", budget, || {
        for &s in &pcm {
            std::hint::black_box(mulaw::encode(std::hint::black_box(s)));
        }
    }));
    let ulaw: Vec<u8> = (0..16u8).map(|i| i * 13).collect();
    cases.push(measure("mulaw_decode_block_16", budget, || {
        for &b in &ulaw {
            std::hint::black_box(mulaw::decode(std::hint::black_box(b)));
        }
    }));
    {
        let mut muting = Muting::new(MutingConfig::default());
        let loud = Tone::new(300.0, 20_000.0).next_block();
        cases.push(measure("muting_observe_apply", budget, || {
            muting.observe_speaker(&loud);
            std::hint::black_box(muting.apply_mic(&loud));
        }));
    }
    {
        let mut clawback = Clawback::new(ClawbackConfig::default());
        for _ in 0..5 {
            clawback.arrival(0u64);
        }
        cases.push(measure("clawback_arrival_tick", budget, || {
            clawback.arrival(std::hint::black_box(1));
            std::hint::black_box(clawback.tick());
        }));
    }

    // Executor primitives, each timed over a fresh simulation running
    // `SIM_OPS` operations and reported per operation.
    cases.push(per_op(measure("sim_rendezvous_round_trip", budget, || {
        let mut sim = Simulation::new();
        let (tx, rx) = channel::<u32>();
        let (ack_tx, ack_rx) = channel::<u32>();
        // Ping sends only after its ack arrives and pong acks only what it
        // received, so neither ever blocks sending while the other does.
        // check:allow(channel-cycle): strict alternation is the round trip measured.
        sim.spawn("ping", async move {
            for i in 0..SIM_OPS {
                if tx.send(i).await.is_err() || ack_rx.recv().await.is_err() {
                    return;
                }
            }
        });
        sim.spawn("pong", async move {
            while let Ok(v) = rx.recv().await {
                if ack_tx.send(v).await.is_err() {
                    return;
                }
            }
        });
        sim.run_until_idle();
    })));
    cases.push(per_op(measure("sim_cpu_claim", budget, || {
        let mut sim = Simulation::new();
        let cpu = Cpu::new("bench", SimDuration::from_nanos(700));
        sim.spawn("worker", async move {
            for _ in 0..SIM_OPS {
                cpu.claim(SimDuration::from_micros(10)).await;
            }
        });
        sim.run_until_idle();
    })));
    cases.push(per_op(measure("sim_timer_fire", budget, || {
        let mut sim = Simulation::new();
        sim.spawn("sleeper", async move {
            for _ in 0..SIM_OPS {
                pandora_sim::delay(SimDuration::from_micros(100)).await;
            }
        });
        sim.run_until_idle();
    })));
    cases
}

/// Operations per call of the executor cases in [`run_cases`].
const SIM_OPS: u32 = 1_000;

/// Rescales a case timed over [`SIM_OPS`] operations per call to
/// per-operation figures.
fn per_op(case: Case) -> Case {
    Case::from_samples(case.name, vec![case.median_ns / f64::from(SIM_OPS)])
}

/// A scalar-vs-batched hot-path pair measured drift-free in one window,
/// with a committed speedup floor: the batched path must beat its scalar
/// oracle by at least `floor`x or the whole suite fails, with the same
/// teeth as the `aal_comparison` guard. `units_per_op` converts one
/// closure call into the tracked unit (cells, ticks, slices, segments).
struct Throughput {
    name: &'static str,
    scalar: Case,
    batched: Case,
    units_per_op: f64,
    unit: &'static str,
    floor: f64,
}

impl Throughput {
    fn speedup(&self) -> f64 {
        self.scalar.median_ns / self.batched.median_ns
    }

    fn units_per_sec(&self) -> f64 {
        self.units_per_op * 1e9 / self.batched.median_ns
    }
}

/// The batched hot paths introduced by the burst/vectorization rework,
/// each paired against the scalar path it replaces (the scalar paths stay
/// in-tree as conformance oracles — see `tests/batched_equivalence.rs`).
fn throughput_suites(budget: Budget) -> Vec<Throughput> {
    let mut suites = Vec::new();

    // Switch fabric: one op pushes 4 frames (24 cells each) across 4
    // routed VCIs through a 4-port core and drains the port queues.
    {
        let payload = vec![0x5Au8; 48 * 24];
        let build = || {
            let (core, rxs) = SwitchCore::new(4, 128);
            for v in 0..4u32 {
                core.route(Vci(100 + v), v as usize, Vci(200 + v));
            }
            (core, rxs)
        };
        let cells: Vec<Cell> = (0..4u32)
            .flat_map(|v| segment_to_cells(Vci(100 + v), &payload, 0))
            .collect();
        let bursts: Vec<CellBurst> = (0..4u32)
            .map(|v| segment_to_burst(Vci(100 + v), &payload, 0))
            .collect();
        let cells_per_op = cells.len() as f64;
        let (s_core, s_rx) = build();
        let (b_core, b_rx) = build();
        let drain = |rxs: &[Receiver<Cell>]| {
            for rx in rxs {
                while let Some(cell) = rx.try_recv() {
                    std::hint::black_box(cell);
                }
            }
        };
        let (scalar, batched) = measure_paired(
            ("switch_dispatch_per_cell", "switch_dispatch_burst"),
            budget,
            || {
                for c in &cells {
                    s_core.dispatch_cell(c.clone());
                }
                drain(&s_rx);
            },
            || {
                for b in &bursts {
                    b_core.dispatch_burst(b);
                }
                drain(&b_rx);
            },
        );
        suites.push(Throughput {
            name: "switch_burst_cells_per_sec",
            scalar,
            batched,
            units_per_op: cells_per_op,
            unit: "cells",
            floor: 1.2,
        });
    }

    // Mixer: one op is one 2 ms mix tick across 64 active streams —
    // flat-LUT decode + branch-free encode vs the reference codec.
    {
        let blocks: Vec<Block> = (0..64u64)
            .map(|s| {
                let mut rng = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let mut block = Block::SILENCE;
                for b in block.0.iter_mut() {
                    rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    *b = (rng >> 32) as u8;
                }
                block
            })
            .collect();
        let (scalar, batched) = measure_paired(
            ("mix_64_reference", "mix_64_lut"),
            budget,
            || {
                std::hint::black_box(mix_blocks_scalar(blocks.iter()));
            },
            || {
                std::hint::black_box(mix_blocks(blocks.iter()));
            },
        );
        suites.push(Throughput {
            name: "mix_ticks_64_streams",
            scalar,
            batched,
            units_per_op: 1.0,
            unit: "ticks",
            floor: 1.3,
        });
    }

    // DPCM: one op compresses and decodes a 32-line x 384-pixel slice,
    // row-chunked vs one line (and one Vec) at a time. The LUT codec work
    // dominates at this width and is shared by both paths, so the slice
    // win (allocation elimination) is small; the floor is a no-regression
    // guard with the same 5% tolerance as the slab-video gate.
    {
        let width = 384usize;
        let lines = 32usize;
        let pixels = TestPattern::new(width as u32, lines as u32).frame(5);
        let (scalar, batched) = measure_paired(
            ("dpcm_per_line", "dpcm_slice"),
            budget,
            || {
                for row in 0..lines {
                    let line =
                        compress_line(&pixels[row * width..(row + 1) * width], LineMode::Dpcm);
                    std::hint::black_box(decompress_line(&line, width).expect("decodes"));
                }
            },
            || {
                let data = compress_slice(&pixels, width, LineMode::Dpcm);
                std::hint::black_box(decompress_slice(&data, width, lines).expect("decodes"));
            },
        );
        suites.push(Throughput {
            name: "dpcm_slices_per_sec",
            scalar,
            batched,
            units_per_op: 1.0,
            unit: "slices",
            floor: 0.95,
        });
    }

    // Full box: one op carries a captured video segment from wire encode
    // through the switch fabric and reassembly to decoded pixels. The
    // floor is a no-regression guard (the codec and fabric wins are
    // tracked by the dedicated pairs above; this row tracks that they
    // compose end to end).
    {
        let mut fs = FrameStore::new(384, 32);
        fs.write_frame(&TestPattern::new(384, 32).frame(3));
        let cfg = CaptureConfig {
            rect: Rect::new(0, 0, 384, 32),
            rate: RateFraction::FULL,
            lines_per_segment: 32,
            mode: LineMode::Dpcm,
        };
        let mut segs = capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
        let seg = Segment::Video(segs.remove(0));
        let bytes = wire::encode(&seg);
        let decode_frame = |frame: &[u8]| {
            let seg = wire::decode(frame).expect("decodes");
            let Segment::Video(v) = seg else {
                unreachable!("video segment round-trips as video")
            };
            std::hint::black_box(
                decompress_slice(&v.data, v.video.width as usize, v.video.lines as usize)
                    .expect("decodes"),
            );
        };
        let build = || {
            let (core, rxs) = SwitchCore::new(1, 512);
            core.route(Vci(5), 0, Vci(6));
            (core, rxs)
        };
        let (s_core, s_rx) = build();
        let (b_core, b_rx) = build();
        let mut s_reasm = Reassembler::new();
        let mut b_reasm = Reassembler::new();
        let mut s_seq = 0u32;
        let mut b_seq = 0u32;
        let (scalar, batched) = measure_paired(
            ("segment_box_per_cell", "segment_box_burst"),
            budget,
            || {
                let cells = segment_to_cells(Vci(5), &bytes, s_seq);
                s_seq = s_seq.wrapping_add(cells.len() as u32);
                for cell in cells {
                    s_core.dispatch_cell(cell);
                }
                let mut out = None;
                while let Some(cell) = s_rx[0].try_recv() {
                    out = s_reasm.push(cell).or(out);
                }
                let (_, frame) = out.expect("frame completes");
                decode_frame(&frame);
            },
            || {
                let burst = segment_to_burst(Vci(5), &bytes, b_seq);
                b_seq = b_seq.wrapping_add(burst.len() as u32);
                b_core.dispatch_burst(&burst);
                let cells: Vec<Cell> = std::iter::from_fn(|| b_rx[0].try_recv()).collect();
                let burst = CellBurst::from_cells(cells).expect("contiguous run");
                let (_, frame) = b_reasm.push_burst(burst).expect("frame completes");
                decode_frame(&frame);
            },
        );
        suites.push(Throughput {
            name: "segments_per_sec",
            scalar,
            batched,
            units_per_op: 1.0,
            unit: "segments",
            floor: 0.95,
        });
    }

    suites
}

/// The session control plane's hot paths, measured without a simulator:
/// the signalling codec both bare and through the segment wire format,
/// admission charge/refund cycles, and directory lookup.
fn session_cases(budget: Budget) -> Vec<Case> {
    let mut cases = Vec::new();
    let msg = SessionMsg::OpenSink {
        txn: 7,
        session: 3,
        class: StreamClass::Video { rate_permille: 500 },
        vci: Vci(0x1234),
    };
    cases.push(measure("session_msg_encode_decode", budget, || {
        let bytes = msg.encode();
        std::hint::black_box(SessionMsg::decode(&bytes).expect("decodes"));
    }));
    cases.push(measure("session_msg_segment_round_trip", budget, || {
        let seg = msg.to_segment(42);
        let bytes = wire::encode(&seg);
        let back = wire::decode(&bytes).expect("decodes");
        std::hint::black_box(SessionMsg::from_segment(&back).expect("is control"));
    }));
    {
        let mut adm = AdmissionController::new(Capabilities::standard());
        cases.push(measure("admission_admit_release_audio", budget, || {
            std::hint::black_box(adm.admit_sink(StreamClass::Audio));
            adm.release_sink(StreamClass::Audio);
        }));
    }
    {
        // A link budget sized so full-rate video must degrade: the cycle
        // measures the halving search plus the refund.
        let mut adm = AdmissionController::new(Capabilities {
            audio_sinks_max: 3,
            video_sinks_max: 2,
            link_cps: 700,
        });
        cases.push(measure("admission_degrade_release_video", budget, || {
            let granted = match adm.admit_sink(StreamClass::Video {
                rate_permille: 1000,
            }) {
                pandora_session::Decision::Admit => 1000,
                pandora_session::Decision::Degrade { rate_permille } => rate_permille,
                pandora_session::Decision::Reject(_) => unreachable!("budget fits the floor"),
            };
            adm.release_sink(StreamClass::Video {
                rate_permille: granted,
            });
        }));
    }
    {
        let mut dir = Directory::new();
        for i in 0..64usize {
            dir.register(EndpointRecord {
                name: format!("node{i}"),
                caps: Capabilities::standard(),
                port: i,
                control_vci: Vci(0x7F00 + i as u32),
                reply_vci: Vci(0x7E00 + i as u32),
            });
        }
        cases.push(measure("directory_find_of_64", budget, || {
            std::hint::black_box(dir.find("node63").expect("registered"));
        }));
    }
    cases
}

/// The failure-recovery state machines, measured without a simulator:
/// one full lease miss/renew transition pair and one bad+clean window
/// pair through the video adaptation machine.
fn recovery_cases(budget: Budget) -> Vec<Case> {
    let mut cases = Vec::new();
    {
        let mut lease = Lease::new(LeaseConfig::default());
        cases.push(measure("lease_miss_renew_cycle", budget, || {
            std::hint::black_box(lease.miss());
            std::hint::black_box(lease.renew());
        }));
    }
    {
        let mut machine = AdaptMachine::new(MediaClass::Video, HealthConfig::default());
        let bad = WindowSample {
            received: 900,
            gaps: 100,
            late: 0,
        };
        let clean = WindowSample {
            received: 1000,
            gaps: 0,
            late: 0,
        };
        cases.push(measure("adapt_observe_bad_clean", budget, || {
            std::hint::black_box(machine.observe(&bad));
            std::hint::black_box(machine.observe(&clean));
        }));
    }
    cases
}

/// One heartbeat-interval point of the crash scenario sweep. All times
/// are *virtual*: the same inputs yield byte-identical values on any
/// host, so the committed file doubles as a regression fixture.
struct RecoveryScenario {
    heartbeat_ms: u64,
    detect_sim_ms: f64,
    reconverge_sim_us: f64,
    probe_misses: u64,
    crashes: u64,
    rejoins: u64,
}

/// A six-box lease-guarded conference; node3 (both a listener of node0's
/// session and the source of its own) crashes at t=2 s and restarts at
/// t=6.5 s. Returns the controller's deterministic recovery measurements.
fn recovery_scenario(heartbeat_ms: u64) -> RecoveryScenario {
    let mut sim = Simulation::new();
    let lease = LeaseConfig {
        interval: SimDuration::from_millis(heartbeat_ms),
        backoff_cap: SimDuration::from_millis(heartbeat_ms * 8),
        ..LeaseConfig::default()
    };
    let star = Star::build(
        &sim.spawner(),
        6,
        StarConfig {
            seed: 71,
            controller: ControllerConfig {
                lease: Some(lease),
                ..ControllerConfig::default()
            },
            ..Default::default()
        },
    );
    let mic0 = star.nodes[0]
        .boxy
        .start_audio_source(Box::new(Speech::new(1)));
    let mic3 = star.nodes[3]
        .boxy
        .start_audio_source(Box::new(Speech::new(2)));
    let endpoints: Vec<_> = star.nodes.iter().map(|n| n.endpoint).collect();
    let controller = star.controller.clone();
    let done = Rc::new(StdCell::new(false));
    let d = done.clone();
    sim.spawn("driver", async move {
        let s0 = controller
            .open(endpoints[0], mic0, StreamClass::Audio)
            .expect("open s0");
        let s3 = controller
            .open(endpoints[3], mic3, StreamClass::Audio)
            .expect("open s3");
        for dst in [1, 2, 3] {
            controller
                .add_listener(s0, endpoints[dst])
                .await
                .expect("admit listener");
        }
        controller
            .add_listener(s3, endpoints[4])
            .await
            .expect("admit s3 listener");
        d.set(true);
    });
    let plan = FaultPlan::default().crash_restart(
        "node3",
        SimDuration::from_secs(2),
        SimDuration::from_millis(4_500),
    );
    let _trace = install(&sim.spawner(), &plan, &FaultTargets::new());
    sim.run_until(SimTime::from_secs(12));
    assert!(done.get(), "scenario driver did not finish");
    RecoveryScenario {
        heartbeat_ms,
        detect_sim_ms: star.controller.detect_latency_mean_ns() / 1e6,
        reconverge_sim_us: star.controller.reconverge_mean_ns() / 1e3,
        probe_misses: star.controller.probe_misses(),
        crashes: star.controller.crashes(),
        rejoins: star.controller.rejoins(),
    }
}

/// One shard count's measurement of the 1,000-box broadcast soak: the
/// executor-level events/sec figure the sharded runtime is tracked by.
struct SimScalingPoint {
    shards: usize,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
}

/// Runs the 1,000-box broadcast soak at shard counts {1, 2, 4, 8},
/// asserting byte-identical traces along the way (a diverging trace is
/// a bench failure, not just a slow run). Returns `None` when the soak
/// fails to complete or diverges.
fn sim_scaling_points() -> Option<Vec<SimScalingPoint>> {
    use pandora_shard::broadcast::{build, BroadcastConfig};
    let cfg = BroadcastConfig {
        boxes: 1_000,
        fanout: 4,
        segment_interval: SimDuration::from_millis(5),
        segments: 50,
        hop_latency: SimDuration::from_micros(200),
        relay_cost: SimDuration::from_micros(40),
    };
    let deadline = SimTime::from_millis(300);
    let mut baseline: Option<Vec<String>> = None;
    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let report = build(&cfg, shards).run(deadline);
        let wall = t0.elapsed();
        let lines = report.merged_lines();
        match &baseline {
            None => {
                if !lines.iter().skip(1).all(|l| l.contains("recv=50")) {
                    eprintln!("bench-json: broadcast soak did not complete at 1 shard");
                    return None;
                }
                baseline = Some(lines);
            }
            Some(b) => {
                if lines != *b {
                    eprintln!("bench-json: broadcast soak diverged at {shards} shards");
                    return None;
                }
            }
        }
        let events = report.events();
        let wall_ms = wall.as_secs_f64() * 1e3;
        points.push(SimScalingPoint {
            shards,
            events,
            wall_ms,
            events_per_sec: events as f64 / wall.as_secs_f64(),
        });
    }
    Some(points)
}

/// The overlay broadcast soak's measurements: virtual-time acceptance
/// floors (tree depth, zero loss on survivors, repair gap within the
/// playout budget) plus the host-dependent wall-clock build+run rate,
/// replayed across shard counts with byte-identical traces.
struct OverlaySoak {
    members: usize,
    trees: usize,
    degree: usize,
    depth: u32,
    depth_bound: u32,
    relay_tx_cps: u64,
    survivors: u64,
    crashed: u64,
    delivered: u64,
    lost_alive: u64,
    late_alive: u64,
    p3_drops: u64,
    p8_skips: u64,
    hub_deaths: u64,
    hub_grafts: u64,
    unrepairable: u64,
    stripe_gap_max_us: u64,
    gap_max_us: u64,
    playout_us: u64,
    hops: u64,
    hop_p50_us: u64,
    hop_p95_us: u64,
    hop_p99_us: u64,
    hop_max_us: u64,
    /// (shards, wall_ms) per run; traces were byte-identical across all.
    scaling: Vec<(usize, f64)>,
}

/// Runs the striped-tree overlay broadcast soak — 1,024 members in full
/// mode, 256 in quick — with a mid-broadcast crash of the busiest
/// interior relay, at several shard counts. Returns `None` (a bench
/// failure) when any acceptance floor is missed or traces diverge.
fn overlay_soak(quick: bool) -> Option<OverlaySoak> {
    use pandora_overlay::{
        build_overlay_broadcast, plan_for, CrashPlan, OverlayConfig, OverlaySummary,
    };
    let mut cfg = OverlayConfig {
        viewers: if quick { 255 } else { 1_023 },
        trees: 4,
        degree: 8,
        seed: 42,
        segments: 100,
        segment_interval: SimDuration::from_millis(4),
        payload_bytes: 1_408,
        // 2 x degree stripe copies of uplink headroom, so a backup that
        // adopts a dead relay's children still serializes in time.
        uplink_cps: 60_000,
        source_uplink_cps: 120_000,
        ..OverlayConfig::default()
    };
    let plan = match plan_for(&cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench-json: overlay plan failed: {e}");
            return None;
        }
    };
    let victim = (1..plan.members()).max_by_key(|&v| plan.fanout(v))?;
    if plan.fanout(victim) == 0 {
        eprintln!("bench-json: overlay plan has no interior relays");
        return None;
    }
    cfg.crash = Some(CrashPlan {
        member: victim,
        at: SimDuration::from_millis(150),
    });
    let deadline = SimTime::from_nanos(
        cfg.segment_interval.as_nanos() * u64::from(cfg.segments)
            + SimDuration::from_millis(200).as_nanos(),
    );
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 4, 8] };
    let mut baseline: Option<Vec<String>> = None;
    let mut relay_tx_cps = 0;
    let mut scaling = Vec::new();
    for &shards in shard_counts {
        let t0 = Instant::now();
        let built = match build_overlay_broadcast(&cfg, shards) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench-json: overlay build failed at {shards} shards: {e}");
                return None;
            }
        };
        relay_tx_cps = built.relay_tx_cps;
        let lines = built.cluster.run(deadline).merged_lines();
        scaling.push((shards, t0.elapsed().as_secs_f64() * 1e3));
        match &baseline {
            None => baseline = Some(lines),
            Some(b) if lines != *b => {
                eprintln!("bench-json: overlay soak diverged at {shards} shards");
                return None;
            }
            Some(_) => {}
        }
    }
    let s = OverlaySummary::parse(baseline.as_deref()?);
    let playout_us = cfg.playout.as_nanos() / 1_000;
    let floors = [
        (
            plan.max_depth_overall() <= plan.depth_bound(),
            "depth exceeds ceil(log_d n)",
        ),
        (s.crashed == 1 && s.hub_deaths == 1, "crash went undetected"),
        (
            s.hub_grafts >= 1 && s.hub_unrepairable == 0,
            "repair incomplete",
        ),
        (s.lost_alive == 0, "survivors lost slices"),
        (s.late_alive == 0, "survivors saw late slices"),
        (
            s.stripe_gap_max_us_alive <= playout_us,
            "repair gap exceeds playout",
        ),
    ];
    for (ok, what) in floors {
        if !ok {
            eprintln!("bench-json: overlay soak floor missed: {what}");
            return None;
        }
    }
    Some(OverlaySoak {
        members: plan.members(),
        trees: cfg.trees,
        degree: cfg.degree,
        depth: plan.max_depth_overall(),
        depth_bound: plan.depth_bound(),
        relay_tx_cps,
        survivors: s.viewers - s.crashed,
        crashed: s.crashed,
        delivered: s.delivered,
        lost_alive: s.lost_alive,
        late_alive: s.late_alive,
        p3_drops: s.p3_drops,
        p8_skips: s.p8_skips,
        hub_deaths: s.hub_deaths,
        hub_grafts: s.hub_grafts,
        unrepairable: s.hub_unrepairable,
        stripe_gap_max_us: s.stripe_gap_max_us_alive,
        gap_max_us: s.gap_max_us_alive,
        playout_us,
        hops: s.hop_count(),
        hop_p50_us: s.hop_percentile_us(500),
        hop_p95_us: s.hop_percentile_us(950),
        hop_p99_us: s.hop_percentile_us(990),
        hop_max_us: s.hop_max_us,
        scaling,
    })
}

fn render_overlay_json(soak: &OverlaySoak, mode: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"overlay\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(
        "  \"note\": \"striped multi-tree broadcast soak with a mid-run interior-relay \
         crash. All soak fields are virtual-time and byte-stable across hosts and shard \
         counts; only scaling.wall_ms is host-dependent. The floors block records the \
         acceptance gates the binary enforces — a missed floor fails the whole run.\",\n",
    );
    out.push_str(&format!(
        "  \"soak\": {{\"members\": {}, \"trees\": {}, \"degree\": {}, \"depth\": {}, \
         \"depth_bound\": {}, \"relay_tx_cps\": {}, \"survivors\": {}, \"crashed\": {}, \
         \"delivered\": {}, \"lost_alive\": {}, \"late_alive\": {}, \"p3_drops\": {}, \
         \"p8_skips\": {}, \"hub_deaths\": {}, \"hub_grafts\": {}, \"unrepairable\": {}, \
         \"stripe_gap_max_us\": {}, \"gap_max_us\": {}, \"playout_us\": {}}},\n",
        soak.members,
        soak.trees,
        soak.degree,
        soak.depth,
        soak.depth_bound,
        soak.relay_tx_cps,
        soak.survivors,
        soak.crashed,
        soak.delivered,
        soak.lost_alive,
        soak.late_alive,
        soak.p3_drops,
        soak.p8_skips,
        soak.hub_deaths,
        soak.hub_grafts,
        soak.unrepairable,
        soak.stripe_gap_max_us,
        soak.gap_max_us,
        soak.playout_us,
    ));
    out.push_str(&format!(
        "  \"hop_latency_us\": {{\"hops\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},\n",
        soak.hops, soak.hop_p50_us, soak.hop_p95_us, soak.hop_p99_us, soak.hop_max_us,
    ));
    out.push_str(
        "  \"floors\": {\"depth_within_bound\": true, \"zero_lost_alive\": true, \
         \"zero_late_alive\": true, \"repair_gap_within_playout\": true, \
         \"traces_identical_across_shards\": true},\n",
    );
    out.push_str("  \"scaling\": [\n");
    for (i, (shards, wall_ms)) in soak.scaling.iter().enumerate() {
        let sep = if i + 1 == soak.scaling.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"shards\": {shards}, \"wall_ms\": {wall_ms:.1}}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_sim_json(points: &[SimScalingPoint], mode: &str) -> Option<String> {
    let base_wall = points.first().filter(|p| p.shards == 1)?.wall_ms;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"sim\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(
        "  \"note\": \"1,000-box broadcast soak; traces byte-identical at every shard \
         count. speedup_vs_1 is wall-clock and only meaningful when host_cores >= shards \
         — on fewer cores the worker threads time-slice one CPU and the honest figure \
         is ~1x minus coordination overhead. Rows with advisory=true ran with more \
         shards than host cores; guards and comparisons must skip them.\",\n",
    );
    out.push_str("  \"scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"shards\": {}, \"events\": {}, \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \"speedup_vs_1\": {:.2}, \"advisory\": {}}}{sep}\n",
            p.shards,
            p.events,
            p.wall_ms,
            p.events_per_sec,
            base_wall / p.wall_ms,
            host_cores < p.shards
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

fn render_recovery_json(
    cases: &[Case],
    scenarios: &[RecoveryScenario],
    mode: &str,
) -> Option<String> {
    if cases.len() < 2 || median_of(cases, "lease_miss_renew_cycle").is_none() {
        eprintln!(
            "bench-json: recovery suite malformed ({} cases)",
            cases.len()
        );
        return None;
    }
    if scenarios.len() < 2
        || scenarios
            .iter()
            .any(|s| s.crashes != 1 || s.rejoins != 1 || s.detect_sim_ms <= 0.0)
    {
        eprintln!("bench-json: recovery scenario sweep failed to reconverge");
        return None;
    }
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"recovery\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"ops_per_sec\": {:.0}}}{sep}\n",
            c.name, c.median_ns, c.ops_per_sec
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"crash_scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"heartbeat_ms\": {}, \"detect_sim_ms\": {:.3}, \"reconverge_sim_us\": {:.3}, \"probe_misses\": {}, \"crashes\": {}, \"rejoins\": {}}}{sep}\n",
            s.heartbeat_ms, s.detect_sim_ms, s.reconverge_sim_us, s.probe_misses, s.crashes, s.rejoins
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

fn render_session_json(cases: &[Case], mode: &str) -> Option<String> {
    if cases.len() < 3 || median_of(cases, "session_msg_encode_decode").is_none() {
        eprintln!(
            "bench-json: session suite malformed ({} cases)",
            cases.len()
        );
        return None;
    }
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"session\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"ops_per_sec\": {:.0}}}{sep}\n",
            c.name, c.median_ns, c.ops_per_sec
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

fn median_of(cases: &[Case], name: &str) -> Option<f64> {
    cases.iter().find(|c| c.name == name).map(|c| c.median_ns)
}

fn render_json(cases: &[Case], throughput: &[Throughput], mode: &str) -> Option<String> {
    if cases.len() < 4 {
        eprintln!("bench-json: only {} cases, need at least 4", cases.len());
        return None;
    }
    if throughput.len() < 4 {
        eprintln!(
            "bench-json: only {} throughput pairs, need at least 4",
            throughput.len()
        );
        return None;
    }
    // Regression guards: each batched hot path carries a committed floor
    // against its scalar oracle. The pairs are drift-free (alternating
    // samples in one window), so dropping below the floor means the
    // batched path genuinely lost its edge, not that the host was busy.
    for t in throughput {
        if t.speedup() < t.floor {
            eprintln!(
                "bench-json: {} below its committed floor: {:.2}x < {:.2}x \
                 (scalar {:.1} ns vs batched {:.1} ns)",
                t.name,
                t.speedup(),
                t.floor,
                t.scalar.median_ns,
                t.batched.median_ns
            );
            return None;
        }
    }
    let legacy = median_of(cases, "aal_round_trip_legacy")?;
    let slab = median_of(cases, "aal_round_trip_slab")?;
    let legacy_video = median_of(cases, "aal_round_trip_legacy_video")?;
    let slab_video = median_of(cases, "aal_round_trip_slab_video")?;
    // Regression guard: the zero-copy path must not lose to the legacy
    // path it replaces. The comparison is drift-free (alternating
    // samples in one window), so a small tolerance absorbs residual
    // scheduler noise while still failing a real regression like the
    // per-append arena borrow this gate was introduced for.
    if slab_video > legacy_video * 1.05 {
        eprintln!(
            "bench-json: slab video round trip regressed vs legacy \
             ({slab_video:.1} ns > {legacy_video:.1} ns + 5%)"
        );
        return None;
    }
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"transport\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"ops_per_sec\": {:.0}}}{sep}\n",
            c.name, c.median_ns, c.ops_per_sec
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"aal_comparison\": {{\"legacy_ns\": {:.1}, \"slab_ns\": {:.1}, \"speedup\": {:.2}, \"improved\": {}, \"video_legacy_ns\": {:.1}, \"video_slab_ns\": {:.1}, \"video_speedup\": {:.2}, \"video_improved\": {}}},\n",
        legacy,
        slab,
        legacy / slab,
        slab < legacy,
        legacy_video,
        slab_video,
        legacy_video / slab_video,
        slab_video < legacy_video
    ));
    out.push_str("  \"throughput\": [\n");
    for (i, t) in throughput.iter().enumerate() {
        let sep = if i + 1 == throughput.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ns\": {:.1}, \"batched_ns\": {:.1}, \"speedup\": {:.2}, \"floor\": {:.2}, \"unit\": \"{}\", \"units_per_sec\": {:.0}, \"improved\": {}}}{sep}\n",
            t.name,
            t.scalar.median_ns,
            t.batched.median_ns,
            t.speedup(),
            t.floor,
            t.unit,
            t.units_per_sec(),
            t.batched.median_ns < t.scalar.median_ns
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    Some(out)
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (budget, mode) = if quick {
        (Budget::quick(), "quick")
    } else {
        (Budget::full(), "full")
    };
    let cases = run_cases(budget);
    for c in &cases {
        println!(
            "{:<28} {:>12.1} ns/op {:>14.0} ops/s",
            c.name, c.median_ns, c.ops_per_sec
        );
    }
    let throughput = throughput_suites(budget);
    for t in &throughput {
        println!(
            "{:<28} scalar {:>9.1} ns -> batched {:>9.1} ns ({:.2}x, floor {:.2}x, {:.0} {}/s)",
            t.name,
            t.scalar.median_ns,
            t.batched.median_ns,
            t.speedup(),
            t.floor,
            t.units_per_sec(),
            t.unit
        );
    }
    let Some(json) = render_json(&cases, &throughput, mode) else {
        eprintln!("bench-json: suite malformed, not writing BENCH_transport.json");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::write("BENCH_transport.json", &json) {
        eprintln!("bench-json: cannot write BENCH_transport.json: {e}");
        return ExitCode::FAILURE;
    }
    let session = session_cases(budget);
    for c in &session {
        println!(
            "{:<28} {:>12.1} ns/op {:>14.0} ops/s",
            c.name, c.median_ns, c.ops_per_sec
        );
    }
    let Some(json) = render_session_json(&session, mode) else {
        eprintln!("bench-json: session suite malformed, not writing BENCH_session.json");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::write("BENCH_session.json", &json) {
        eprintln!("bench-json: cannot write BENCH_session.json: {e}");
        return ExitCode::FAILURE;
    }
    let recovery = recovery_cases(budget);
    for c in &recovery {
        println!(
            "{:<28} {:>12.1} ns/op {:>14.0} ops/s",
            c.name, c.median_ns, c.ops_per_sec
        );
    }
    // The sweep is virtual-time, so quick and full modes measure the
    // same values; only the wall-clock cases above differ by budget.
    let scenarios: Vec<RecoveryScenario> =
        [50, 100, 200].map(recovery_scenario).into_iter().collect();
    for s in &scenarios {
        println!(
            "crash @ heartbeat {:>4} ms: detected in {:.1} ms, reconverged in {:.1} us ({} probe misses)",
            s.heartbeat_ms, s.detect_sim_ms, s.reconverge_sim_us, s.probe_misses
        );
    }
    let Some(json) = render_recovery_json(&recovery, &scenarios, mode) else {
        eprintln!("bench-json: recovery suite malformed, not writing BENCH_recovery.json");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::write("BENCH_recovery.json", &json) {
        eprintln!("bench-json: cannot write BENCH_recovery.json: {e}");
        return ExitCode::FAILURE;
    }
    // The sharded-executor scaling curve is virtual-workload/wall-clock:
    // the trace equality checks inside are deterministic, the rates are
    // host-dependent.
    let Some(points) = sim_scaling_points() else {
        eprintln!("bench-json: sim suite failed, not writing BENCH_sim.json");
        return ExitCode::FAILURE;
    };
    for p in &points {
        println!(
            "broadcast soak @ {} shard(s): {} events in {:.1} ms ({:.0} events/s)",
            p.shards, p.events, p.wall_ms, p.events_per_sec
        );
    }
    let Some(json) = render_sim_json(&points, mode) else {
        eprintln!("bench-json: sim suite malformed, not writing BENCH_sim.json");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::write("BENCH_sim.json", &json) {
        eprintln!("bench-json: cannot write BENCH_sim.json: {e}");
        return ExitCode::FAILURE;
    }
    // The overlay broadcast soak: virtual-time acceptance floors plus
    // the wall-clock build+run rate per shard count.
    let Some(soak) = overlay_soak(quick) else {
        eprintln!("bench-json: overlay soak failed, not writing BENCH_overlay.json");
        return ExitCode::FAILURE;
    };
    println!(
        "overlay soak: {} members, depth {}/{}, {} survivors at 0 lost / 0 late, \
         repair gap {} us (playout {} us), hop p50<={} p95<={} p99<={} max={} us",
        soak.members,
        soak.depth,
        soak.depth_bound,
        soak.survivors,
        soak.stripe_gap_max_us,
        soak.playout_us,
        soak.hop_p50_us,
        soak.hop_p95_us,
        soak.hop_p99_us,
        soak.hop_max_us,
    );
    for (shards, wall_ms) in &soak.scaling {
        println!("overlay soak @ {shards} shard(s): {wall_ms:.1} ms wall");
    }
    let json = render_overlay_json(&soak, mode);
    if let Err(e) = std::fs::write("BENCH_overlay.json", &json) {
        eprintln!("bench-json: cannot write BENCH_overlay.json: {e}");
        return ExitCode::FAILURE;
    }
    let legacy = median_of(&cases, "aal_round_trip_legacy").unwrap_or(0.0);
    let slab = median_of(&cases, "aal_round_trip_slab").unwrap_or(0.0);
    println!(
        "aal audio round trip: legacy {legacy:.1} ns -> slab {slab:.1} ns ({:.2}x)",
        legacy / slab
    );
    println!(
        "wrote BENCH_transport.json, BENCH_session.json, BENCH_recovery.json, BENCH_sim.json \
         and BENCH_overlay.json ({mode} mode)"
    );
    ExitCode::SUCCESS
}
