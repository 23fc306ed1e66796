#![warn(missing_docs)]
// Shipped code answers with a typed error, never a panic; a site that
// cannot fail keeps an `#[allow]` naming its invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # gridfed-simnet
//!
//! Deterministic virtual-time substitute for the paper's physical testbed
//! (two Pentium-IV machines on a 100 Mbps Ethernet LAN, plus the WAN links
//! of the LHC tier model).
//!
//! Every operation in the middleware returns, alongside its real result, a
//! [`cost::Cost`]: the virtual time the operation would have taken on the
//! modeled hardware. Costs compose sequentially with `+` and in parallel
//! with [`cost::Cost::par`] (`max`), which is how the mediator accounts for
//! scatter/gather sub-query execution. Because the model is deterministic,
//! every experiment in `EXPERIMENTS.md` reproduces exactly.
//!
//! Modules:
//! - [`cost`] — the cost algebra.
//! - [`link`] — latency/bandwidth links and transfer costs.
//! - [`topology`] — named nodes and the links between them.
//! - [`disk`] — disk profiles for the ETL staging-file model.
//! - [`params`] — calibration constants, documented against the paper's
//!   measured numbers.

pub mod cost;
pub mod disk;
pub mod link;
pub mod params;
pub mod topology;

pub use cost::Cost;
pub use disk::DiskProfile;
pub use link::Link;
pub use params::CostParams;
pub use topology::{LinkCondition, LinkConditions, Topology};
