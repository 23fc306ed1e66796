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
//! # gridfed-faults
//!
//! Seeded, deterministic fault injection for the gridfed federation stack.
//!
//! The paper's Data Access Service is interesting precisely when things go
//! wrong: a mart's database crashes mid-scan, a WAN link to a remote
//! JClarens server partitions, the RLS hands out a replica that died an
//! hour ago. This crate supplies the *failure side* of the simulation —
//! the resilience machinery that answers it lives in `gridfed-core`:
//!
//! - [`VirtualClock`] — a shared monotonic virtual clock (the cost model
//!   measures durations; fault windows need an epoch). Scoped thread-local
//!   offsets let a retry loop "sleep" in virtual time without perturbing
//!   sibling scatter branches.
//! - [`FaultPlan`] — a declarative, seeded schedule: crash/restart windows,
//!   transient error rates, slow servers, slow/partitioned links, RLS
//!   staleness. `SimServer`, `ClarensServer`, `Topology`, and `RlsServer`
//!   consult it at each operation via [`FaultPlan::check_op`] /
//!   [`gridfed_simnet::LinkConditions`] / [`FaultPlan::rls_is_stale`].
//!
//! Everything is deterministic: same plan, same seed, same operation
//! sequence → same injected faults. There is no wall-clock anywhere, so
//! chaos tests run instantly and reproduce exactly.

pub mod clock;
pub mod plan;

pub use clock::VirtualClock;
pub use plan::{FaultPlan, FaultStats, Injected, OpCheck, Window};
