//! Layer replays for the host-time ledger.
//!
//! Each replay calls one layer's public functions in isolation, at the
//! shape the workload used, and returns the median host nanoseconds per
//! unit of work, normalised like the run times (see [`crate::calib`]).
//! The ledger multiplies that by the run's exact unit counts to get the
//! layer's share of the measured run time.

use std::hint::black_box;
use std::time::Instant;

use pandora_atm::{segment_to_burst, CellBurst, SlabReassembler, SwitchCore, Vci};
use pandora_audio::{mix_blocks, Block};
use pandora_overlay::{RepairEngine, TreePlan};
use pandora_recover::LeaseConfig;
use pandora_segment::{
    wire, AudioSegment, PixelFormat, Segment, SequenceNumber, SlabSegment, Timestamp,
    VideoCompression, VideoHeader, VideoSegment, BLOCK_BYTES,
};
use pandora_sim::{alt_many, unbounded, SimDuration, Simulation};
use pandora_slab::ByteSlab;
use pandora_video::dpcm::{compress_slice, compressed_line_bytes, decompress_slice, LineMode};
use pandora_video::{FrameStore, TestPattern, DEFAULT_HEIGHT, DEFAULT_WIDTH};

use crate::calib::speed_factor;

/// Batches per replay; the median batch sets the per-unit cost.
const BATCHES: usize = 5;

/// Median normalised host ns per unit over [`BATCHES`] batches of
/// `per_batch` units; `f` does unit `i`.
fn per_unit_ns(per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    f(i); // warm caches and lazy tables
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                i += 1;
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2] * speed_factor()
}

/// One camera frame: render the test pattern and write it to the
/// framestore, as the per-box camera task does every 40 ms.
pub fn camera_frame_ns() -> f64 {
    let pattern = TestPattern::new(DEFAULT_WIDTH, DEFAULT_HEIGHT);
    let mut store = FrameStore::new(DEFAULT_WIDTH, DEFAULT_HEIGHT);
    per_unit_ns(4, |n| {
        store.write_frame(&pattern.frame(n));
        black_box(store.generation());
    })
}

/// One mixer tick over `streams` active streams.
pub fn mix_tick_ns(streams: usize) -> f64 {
    let blocks: Vec<Block> = (0..streams.max(1))
        .map(|s| {
            let mut b = [0u8; BLOCK_BYTES];
            for (i, v) in b.iter_mut().enumerate() {
                *v = (s * 37 + i * 11) as u8;
            }
            Block(b)
        })
        .collect();
    per_unit_ns(20_000, |_| {
        black_box(mix_blocks(black_box(&blocks[..streams])));
    })
}

/// A camera window's pixels: `lines` rows of the test pattern, `width`
/// wide.
fn window_pixels(width: usize, lines: usize) -> Vec<u8> {
    let frame = TestPattern::new(DEFAULT_WIDTH, DEFAULT_HEIGHT).frame(7);
    let stride = DEFAULT_WIDTH as usize;
    (0..lines)
        .flat_map(|y| frame[(y + 32) * stride + 64..][..width].to_vec())
        .collect()
}

/// DPCM compress and decompress of one video segment of `lines` lines,
/// `width` pixels wide: `(compress ns, decompress ns)`.
pub fn dpcm_ns(width: usize, lines: usize) -> (f64, f64) {
    let pixels = window_pixels(width, lines);
    let compressed = compress_slice(&pixels, width, LineMode::Dpcm);
    let c = per_unit_ns(200, |_| {
        black_box(compress_slice(black_box(&pixels), width, LineMode::Dpcm));
    });
    let d = per_unit_ns(200, |_| {
        black_box(decompress_slice(black_box(&compressed), width, lines));
    });
    (c, d)
}

/// An audio segment as the boxes send it: `blocks` µ-law blocks.
pub fn audio_segment(blocks: usize) -> Segment {
    Segment::Audio(AudioSegment::from_blocks(
        SequenceNumber(7),
        Timestamp(1_234),
        vec![0x55; blocks * BLOCK_BYTES],
    ))
}

/// A DPCM video segment of `lines` lines, `width` pixels wide.
pub fn video_segment(width: u32, lines: u32) -> Segment {
    let bytes = compressed_line_bytes(width as usize, LineMode::Dpcm) * lines as usize;
    let header = VideoHeader {
        frame_number: 3,
        segments_in_frame: 4,
        segment_number: 1,
        x_offset: 64,
        y_offset: 32,
        pixel_format: PixelFormat::Mono8,
        compression: VideoCompression::Dpcm,
        compression_args: vec![2],
        width,
        start_line: 32,
        lines,
        data_length: 0,
    };
    Segment::Video(VideoSegment::new(
        SequenceNumber(11),
        Timestamp(5_678),
        header,
        vec![0x3C; bytes],
    ))
}

/// Header encode into a buffer and in-place slab decode of one segment:
/// `(encode ns, decode ns)`.
pub fn wire_ns(segment: &Segment) -> (f64, f64) {
    let slab = ByteSlab::new(8, 64 * 1024);
    let sseg = SlabSegment::from_segment(segment, &slab).expect("replay slab fits one segment");
    let frame = slab
        .try_alloc_copy(&wire::encode(segment))
        .expect("replay slab fits one frame");
    let mut header_buf = [0u8; 256];
    let e = per_unit_ns(20_000, |_| {
        black_box(wire::encode_header_into(&sseg.header, &mut header_buf));
    });
    let d = per_unit_ns(20_000, |_| {
        black_box(wire::decode_slab(black_box(&frame)).expect("replay frame decodes"));
    });
    (e, d)
}

/// One frame's trip through the ATM layer: cut into a burst, one switch
/// dispatch, reassembly into a slab. Returns `(ns per frame, cells per
/// frame)`.
pub fn atm_ns(frame: &[u8]) -> (f64, usize) {
    let (core, ports) = SwitchCore::new(1, 1 << 16);
    core.route(Vci(1), 0, Vci(2));
    let mut reasm = SlabReassembler::new(ByteSlab::new(8, 64 * 1024));
    let mut seq = 0u32;
    let mut cells = 0;
    let ns = per_unit_ns(200, |_| {
        let burst = segment_to_burst(Vci(1), frame, seq);
        cells = burst.len();
        seq = seq.wrapping_add(cells as u32);
        core.dispatch_burst(&burst);
        let arrived: Vec<_> = std::iter::from_fn(|| ports[0].try_recv()).collect();
        let burst = CellBurst::from_cells(arrived).expect("dispatched cells form a burst");
        black_box(reasm.push_burst(burst).expect("frame completes"));
    });
    (ns, cells)
}

/// One completed PRI ALT over `width` receivers. Messages arrive in
/// rounds of `burst` (spread over the guards), 10 ms of virtual time
/// apart, so a round of `width` is a heartbeat storm and a round of 1 is
/// one cell waking the switch.
pub fn alt_fanin_ns(width: usize, burst: usize) -> f64 {
    let rounds = (4_000 / burst).max(2);
    let total = rounds * burst;
    let mut sim = Simulation::new();
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..width).map(|_| unbounded::<u32>()).unzip();
    sim.spawn("producer", async move {
        let mut next = 0usize;
        for _ in 0..rounds {
            for _ in 0..burst {
                let _ = txs[next % width].send(next as u32).await;
                next += 1;
            }
            pandora_sim::delay(SimDuration::from_millis(10)).await;
        }
    });
    sim.spawn("consumer", async move {
        let guards: Vec<_> = rxs.iter().collect();
        for _ in 0..total {
            if alt_many(&guards).await.is_none() {
                return;
            }
        }
    });
    let t0 = Instant::now();
    sim.run_until_idle();
    t0.elapsed().as_nanos() as f64 / total as f64 * speed_factor()
}

/// One heartbeat absorbed by the overlay hub's repair engine.
pub fn hello_ns(plan: &TreePlan, lease: LeaseConfig) -> f64 {
    let mut engine = RepairEngine::new(plan.clone(), lease);
    let members = plan.members().max(2) as u64;
    let next = vec![0u32; plan.trees()];
    per_unit_ns(50_000, |i| {
        engine.hello(1 + (i % (members - 1)) as usize, black_box(&next));
    })
}
