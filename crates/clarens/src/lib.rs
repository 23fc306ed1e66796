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
//! # gridfed-clarens
//!
//! The (J)Clarens web-service framework (paper §1, §4): the layer that
//! gives "all kinds of (simple and) complex clients" language- and
//! platform-independent access to grid services over the web.
//!
//! Clarens was an HTTPS + XML-RPC server with certificate-based sessions;
//! JClarens its Java port hosting the Data Access Service. This crate
//! reproduces the architecture over the virtual-time network:
//!
//! - [`codec`] — a self-describing wire encoding (the XML-RPC stand-in);
//!   payload bytes feed the transfer-cost model.
//! - [`server`] — [`server::ClarensServer`]: named service registry +
//!   session-authenticated dispatch.
//! - [`client`] — [`client::ClarensClient`]: login + remote calls from a
//!   topology node, paying request/response transfer costs.
//! - [`directory`] — URL → server directory (the DNS of the simulation),
//!   used by the mediator to reach remote JClarens instances found via RLS.
//! - [`trace`] — the trace-context field a calling mediator attaches to
//!   remote calls so spans from the far side stitch into its own tree.

pub mod client;
pub mod codec;
pub mod directory;
pub mod error;
pub mod server;
pub mod trace;

pub use client::ClarensClient;
pub use codec::WireValue;
pub use directory::Directory;
pub use error::ClarensError;
pub use server::{ClarensServer, Service};
pub use trace::TraceContext;

/// Result alias.
pub type Result<T> = std::result::Result<T, ClarensError>;
