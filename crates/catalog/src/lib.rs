//! The TSS catalog server.
//!
//! Each file server periodically reports itself (owner, address,
//! capacity, top-level ACL, activity) to one or more catalogs over
//! UDP. The catalog publishes the aggregate listing on a transport
//! [`Listener`](chirp_proto::transport::Listener) (TCP in production)
//! in both a ClassAd-style text format and JSON, and expires servers
//! that stop reporting.
//!
//! All catalog data is necessarily stale: anything a file server
//! reported may have changed between a catalog query and a query to
//! the server itself, so abstractions that discover storage through
//! the catalog must be prepared to revisit any assumption (paper §4).
//!
//! A deployment may run several catalogs covering different, possibly
//! overlapping, subsets of servers — for fault tolerance, load
//! sharing, or policy (e.g. a private rendezvous catalog for transient
//! servers submitted to a batch system).

#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod report;
pub mod server;

pub use client::query;
pub use report::ServerReport;
pub use server::{CatalogConfig, CatalogServer};
