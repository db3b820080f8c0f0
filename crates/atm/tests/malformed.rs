//! Malformed-input behaviour of the AAL layer (§3.8: "if an error
//! occurs … the general rule is that the current segment is thrown
//! away"). Reassembly must translate every corruption into discard
//! counters and keep running — never panic, never wedge a circuit.
//!
//! Every case runs against both reassemblers: the reference
//! [`Reassembler`] and the production [`SlabReassembler`] the box's
//! network input uses. The slab runs end with an exact leak audit: once
//! the reassembler and its frames are gone, every region is free again.

use pandora_atm::{segment_to_cells, Cell, Reassembler, SlabReassembler, Vci};
use pandora_slab::ByteSlab;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Regions of the test slab: more than the circuits any case opens.
const REGIONS: usize = 8;
/// Bytes per region: more than the longest frame any case can merge.
const REGION_BYTES: usize = 16 * 1024;

/// The reassembler under test, frames handed back as owned bytes.
trait Reasm {
    fn push(&mut self, cell: Cell) -> Option<(Vci, Vec<u8>)>;
    /// `(frames_ok, frames_discarded)`.
    fn counts(&self) -> (u64, u64);
    fn circuits(&self) -> usize;
}

impl Reasm for Reassembler {
    fn push(&mut self, cell: Cell) -> Option<(Vci, Vec<u8>)> {
        Reassembler::push(self, cell)
    }
    fn counts(&self) -> (u64, u64) {
        (self.frames_ok(), self.frames_discarded())
    }
    fn circuits(&self) -> usize {
        Reassembler::circuits(self)
    }
}

impl Reasm for SlabReassembler {
    fn push(&mut self, cell: Cell) -> Option<(Vci, Vec<u8>)> {
        SlabReassembler::push(self, cell).map(|(vci, frame)| (vci, frame.copy_to_vec()))
    }
    fn counts(&self) -> (u64, u64) {
        (self.frames_ok(), self.frames_discarded())
    }
    fn circuits(&self) -> usize {
        SlabReassembler::circuits(self)
    }
}

/// Runs `case` on a fresh reference reassembler, then on a fresh slab
/// reassembler followed by the exact leak audit. Returns both results.
fn on_both<T>(mut case: impl FnMut(&mut dyn Reasm) -> T) -> (T, T) {
    let reference = case(&mut Reassembler::new());
    let slab = ByteSlab::new(REGIONS, REGION_BYTES);
    let mut r = SlabReassembler::new(slab.clone());
    let production = case(&mut r);
    drop(r);
    assert_eq!(slab.free_count(), slab.capacity(), "slab regions leaked");
    (reference, production)
}

fn feed(r: &mut dyn Reasm, cells: impl IntoIterator<Item = Cell>) -> Vec<(Vci, Vec<u8>)> {
    cells.into_iter().filter_map(|c| r.push(c)).collect()
}

#[test]
fn truncated_burst_discards_both_frames_once() {
    // The tail of a burst — including the marked last cell — never
    // arrives; the next burst's cells run straight on. The sequence gap
    // poisons the merged frame, which is discarded at the next last-cell
    // marker, and the circuit then recovers.
    on_both(|r| {
        let f1 = vec![1u8; 150];
        let f2 = vec![2u8; 96];
        let mut c1 = segment_to_cells(Vci(5), &f1, 0);
        let n1 = c1.len() as u32;
        c1.truncate(c1.len() - 2); // lose the tail, with its `last` marker
        let c2 = segment_to_cells(Vci(5), &f2, n1);
        let done = feed(r, c1.into_iter().chain(c2));
        assert!(done.is_empty(), "truncated frame delivered: {done:?}");
        assert_eq!(r.counts(), (0, 1));
        let f3 = vec![3u8; 48];
        let c3 = segment_to_cells(Vci(5), &f3, n1 + 2);
        let done = feed(r, c3);
        assert_eq!(done, vec![(Vci(5), f3)], "circuit did not recover");
    });
}

#[test]
fn reordered_cells_discard_frame_and_recover() {
    on_both(|r| {
        let frame = vec![9u8; 200];
        let mut cells = segment_to_cells(Vci(7), &frame, 40);
        cells.swap(1, 2);
        let done = feed(r, cells);
        assert!(done.is_empty(), "reordered frame delivered");
        assert_eq!(r.counts().1, 1);
        let next = segment_to_cells(Vci(7), &[4u8; 30], 45);
        assert_eq!(feed(r, next).len(), 1, "circuit did not recover");
    });
}

#[test]
fn duplicated_cell_discards_frame() {
    on_both(|r| {
        let frame = vec![6u8; 150];
        let mut cells = segment_to_cells(Vci(3), &frame, 0);
        cells.insert(1, cells[1].clone()); // the same cell delivered twice
        let done = feed(r, cells);
        assert!(done.is_empty(), "duplicated cell slipped a frame through");
        assert_eq!(r.counts().1, 1);
    });
}

#[test]
fn colliding_vci_interleave_never_panics() {
    // Two senders erroneously share one VCI with independent counters —
    // a misconfigured switch table. Reassembly sees constant sequence
    // breaks; everything is discarded, nothing explodes, and the
    // receiver still tracks a single circuit.
    on_both(|r| {
        let fa = vec![1u8; 150];
        let fb = vec![2u8; 150];
        let ca = segment_to_cells(Vci(11), &fa, 0);
        let cb = segment_to_cells(Vci(11), &fb, 1_000);
        let mut done = Vec::new();
        for (a, b) in ca.into_iter().zip(cb) {
            done.extend(r.push(a));
            done.extend(r.push(b));
        }
        assert!(done.is_empty(), "interleaved collision delivered: {done:?}");
        assert!(r.counts().1 >= 2);
        assert_eq!(r.circuits(), 1);
    });
}

#[test]
fn seeded_mutation_fuzz_never_panics() {
    // Drop, duplicate, swap and truncate cells at random across a long
    // cell stream; every outcome must land in a counter. Same seed,
    // same verdicts — rerun twice and compare — and the same verdicts
    // from both reassemblers.
    fn run(seed: u64, r: &mut dyn Reasm) -> (u64, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cells: Vec<Cell> = Vec::new();
        let mut seq = 0u32;
        for i in 0..60u8 {
            let len = rng.gen_range(1..200usize);
            let frame = vec![i; len];
            let burst = segment_to_cells(Vci(u32::from(i % 4)), &frame, seq);
            seq = seq.wrapping_add(burst.len() as u32);
            cells.extend(burst);
        }
        for _ in 0..30 {
            if cells.len() < 4 {
                break;
            }
            let k = rng.gen_range(0..cells.len());
            match rng.gen_range(0..4u32) {
                0 => {
                    cells.remove(k);
                }
                1 => {
                    let c = cells[k].clone();
                    cells.insert(k, c);
                }
                2 => {
                    let j = rng.gen_range(0..cells.len());
                    cells.swap(k, j);
                }
                _ => {
                    cells.truncate(cells.len() - 1);
                }
            }
        }
        for c in cells {
            let _ = r.push(c);
        }
        let counts = r.counts();
        // The reassembler must still work after the assault.
        let clean = segment_to_cells(Vci(99), &[5u8; 100], 0);
        assert_eq!(feed(r, clean).len(), 1, "reassembler wedged");
        counts
    }
    for seed in 0..10u64 {
        let (reference, production) = on_both(|r| run(seed, r));
        let (rerun, _) = on_both(|r| run(seed, r));
        assert_eq!(reference, rerun, "seed {seed} diverged");
        assert_eq!(reference, production, "seed {seed}: reassemblers disagree");
        assert!(reference.1 > 0, "seed {seed} mutated nothing");
    }
}

#[test]
fn unterminated_run_holds_one_region_per_circuit() {
    // Cells whose `last` mark never comes keep arriving, in sequence, on
    // three circuits at once. Each circuit holds at most its one frame
    // region — the run overflows it and is dropped rather than grown —
    // and the frame that finally ends the run is discarded whole.
    let slab = ByteSlab::new(REGIONS, REGION_BYTES);
    let mut r = SlabReassembler::new(slab.clone());
    let vcis = [Vci(1), Vci(2), Vci(3)];
    let run_cells = 2 * REGION_BYTES / 48;
    for i in 0..run_cells {
        for vci in vcis {
            let cell = Cell::new(vci, i as u32, false, &[0xEE; 48]);
            assert!(r.push(cell).is_none(), "unterminated run delivered");
            let held = slab.capacity() - slab.free_count();
            assert!(
                held <= vcis.len(),
                "{held} regions for {} circuits",
                vcis.len()
            );
        }
    }
    let mut seq = run_cells as u32;
    for vci in vcis {
        let done = feed(&mut r, segment_to_cells(vci, &[1u8; 100], seq));
        assert!(done.is_empty(), "oversize run delivered on {vci:?}");
    }
    assert_eq!(r.frames_discarded(), vcis.len() as u64);
    // Each circuit recovers at its next frame.
    seq += 3;
    for vci in vcis {
        let frame = vec![vci.0 as u8; 130];
        let done = feed(&mut r, segment_to_cells(vci, &frame, seq));
        assert_eq!(done, vec![(vci, frame)], "{vci:?} did not recover");
    }
    drop(r);
    assert_eq!(slab.free_count(), slab.capacity(), "slab regions leaked");
}
