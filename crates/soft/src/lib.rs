//! # widx-soft — software walkers on real hardware
//!
//! The lasting software legacy of *Meet the Walkers* is its central
//! observation: hash-index probes have abundant **inter-key parallelism**
//! that a serial probe loop wastes. Follow-up systems (AMAC, CoroBase)
//! exploit it in software by keeping several probes in flight per core,
//! issuing a prefetch for each probe's next node and switching to
//! another probe instead of stalling — hand-rolled coroutines.
//!
//! This crate implements that line of work over the same
//! [`HashIndex`](widx_db::index::HashIndex) the simulation studies:
//!
//! * [`probe_scalar`] — the baseline one-probe-at-a-time loop
//!   (Listing 1 of the paper);
//! * [`probe_group_prefetch`] — stage-synchronized group prefetching
//!   (Chen et al.'s GP, the paper's reference \[5\]);
//! * [`probe_amac`] — asynchronous memory-access chaining: a ring of
//!   independent probe state machines, each prefetching its next node
//!   before yielding — the software equivalent of the paper's parallel
//!   walker units;
//! * [`AmacWalker`] — the resumable, tag-carrying form of the same
//!   ring, built for serving layers (`widx-serve`) that feed keys in as
//!   requests arrive and drain at batch boundaries.
//!
//! The same three shapes exist for **ordered-index range scans** over a
//! [`BTreeIndex`](widx_db::index::BTreeIndex) — [`scan_btree_scalar`],
//! [`scan_btree_group`], and [`scan_btree_amac`] /
//! [`BTreeRangeWalker`] — where the descent is the pointer chase the
//! walkers overlap and the leaf chain is scanned with sibling
//! prefetching (paper Section 7's "other index structures" extension).
//!
//! All three produce identical result multisets; the Criterion bench
//! `soft_walkers` compares their throughput on DRAM-resident indexes,
//! where AMAC plays the role of "4 walkers" on a real CPU.
//!
//! # Example
//!
//! ```
//! use widx_db::hash::HashRecipe;
//! use widx_db::index::HashIndex;
//! use widx_soft::{probe_amac, probe_scalar};
//!
//! let index = HashIndex::build(HashRecipe::robust64(), 1024,
//!                              (0..1000u64).map(|k| (k, k)));
//! let probes: Vec<u64> = (0..100).map(|i| i * 7).collect();
//! let mut serial = Vec::new();
//! let mut interleaved = Vec::new();
//! probe_scalar(&index, &probes, &mut serial);
//! probe_amac(&index, &probes, 8, &mut interleaved);
//! serial.sort_unstable();
//! interleaved.sort_unstable();
//! assert_eq!(serial, interleaved);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the prefetch shim (raw-pointer prefetch
// intrinsics); everything else is safe Rust.

mod amac;
mod btree_walker;
mod group;
pub mod prefetch;
mod scalar;

pub use amac::{probe_amac, AmacWalker};
pub use btree_walker::{
    scan_btree_amac, scan_btree_group, scan_btree_scalar, BTreeRangeWalker, ScanRange,
};
pub use group::probe_group_prefetch;
pub use scalar::probe_scalar;
// Walker-level MLP evidence both resumable walkers accumulate; defined in
// dependency-free `widx-obs` so the trace subsystem shares the shape.
pub use widx_obs::WalkCounters;

/// A probe result: `(probe key, payload)`.
pub type Match = (u64, u64);
