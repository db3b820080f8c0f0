//! # pandora-atm — the simulated ATM network
//!
//! The substrate substitution for Pandora's dedicated ATM ring network
//! (§1.0; \[Hopper88\], \[McAuley90\] — see DESIGN.md §2):
//!
//! * [`Cell`] / [`Vci`] — 53-byte cells on virtual circuits; Pandora
//!   carries the destination's stream number in the VCI;
//! * [`segment_to_cells`] / [`Reassembler`] — frame segmentation and
//!   reassembly with whole-frame discard on cell loss;
//! * [`cells_gather`] / [`SlabReassembler`] — the zero-copy variants:
//!   scatter-gather segmentation straight from a header region plus a
//!   slab payload, and reassembly directly into slab regions;
//! * [`build_path`] / [`HopConfig`] — multi-hop paths with bandwidth,
//!   latency, seeded [`JitterModel`]s (including the paper's
//!   "2 ms usually, 20 ms under video load" bursty shape) and Bernoulli
//!   loss;
//! * [`Switch`] — a VCI-routed switch whose full output ports drop rather
//!   than stall other ports (Principle 5 at the fabric level);
//! * [`CellBurst`] / [`SwitchCore`] — the batched hot path: a segment's
//!   cells cross route lookup, fan-out and reassembly with one dispatch
//!   per burst, byte-identical to the per-cell path.

mod aal;
mod burst;
mod cell;
mod network;

pub use aal::{cells_gather, segment_to_cells, Reassembler, SlabReassembler};
pub use burst::{burst_gather, segment_to_burst, CellBurst, SwitchCore};
pub use cell::{Cell, Vci, CELL_BYTES, CELL_PAYLOAD};
pub use network::{
    build_duplex_path, build_path, build_path_controlled, jitter_stage, loss_stage, DuplexPath,
    FabricCounters, HopConfig, JitterModel, PathControl, Switch,
};
