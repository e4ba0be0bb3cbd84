//! A stateless placeholder for the reclamation domain the index builds
//! once took.
//!
//! The indexes free unlinked nodes directly under the writer's `&mut`
//! borrow, so nothing needs deferring. `ShardedIndex::build` and
//! `OrderedShardedIndex::build` (in `widx-serve`) still accept an
//! `&EpochDomain` and ignore it; the parameter is kept for the benchmark
//! and will be removed by the next benchmark change.
//!
//! # Example
//!
//! ```
//! use widx_db::epoch::EpochDomain;
//!
//! let _domain = EpochDomain::new();
//! ```

use std::sync::Arc;

/// An empty domain, accepted and ignored by the sharded index builds.
#[derive(Debug)]
pub struct EpochDomain;

impl EpochDomain {
    /// A new (stateless) domain.
    #[must_use]
    pub fn new() -> Arc<EpochDomain> {
        Arc::new(EpochDomain)
    }
}
