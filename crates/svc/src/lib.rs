//! `prt-svc` — a streaming, cache-backed campaign and diagnosis server
//! for the PRT suite.
//!
//! The suite's batch tools answer "what does this March test cover?"
//! one process at a time. This crate turns the same engines into a
//! long-running **service**: clients submit campaign jobs (geometry,
//! fault-universe spec, test family, backgrounds, deadline) over a
//! length-prefixed TCP protocol ([`proto`]); the server runs each job as
//! one campaign over its lazily decoded universe, in segments across a
//! worker pool, and **streams** per-segment coverage deltas back as they
//! complete, so a million-fault sweep reports progress from its first
//! segment instead of going dark until the end. Two caches keep repeat
//! work free: compiled [`prt_ram::TestProgram`]s are shared per
//! `(family, geometry, background)` ([`cache::ProgramCache`]), and
//! fault dictionaries are built once, optionally persisted to disk, and
//! `Arc`-shared across queries ([`prt_diag::DictionaryStore`]).
//!
//! Everything is `std`-only — the wire protocol is hand-rolled frames,
//! the server is `std::net` + `std::thread` — because the workspace
//! builds with no registry access.
//!
//! # Quick start
//!
//! Run a server (defaults to `127.0.0.1:0` in-process; the binary
//! defaults to port 7177):
//!
//! ```text
//! cargo run --release -p prt-svc -- 127.0.0.1:7177
//! ```
//!
//! then stream a couple of concurrent jobs through it and exercise the
//! dictionary cache:
//!
//! ```text
//! cargo run --release -p prt-svc --bin svc-demo -- 127.0.0.1:7177 2
//! ```
//!
//! Knobs (environment): `PRT_SVC_WORKERS` (worker threads per job, `0`
//! = auto), `PRT_SVC_SEGMENT` (streaming segment length, default 512),
//! `PRT_SVC_SHARD` (the most faults a job decodes at a time, so the cap
//! on its segment length, default 8192), `PRT_SVC_STORE` (disk
//! directory for persisted dictionaries).
//!
//! In-process, the same server is three lines — this is how the
//! integration tests drive it:
//!
//! ```
//! use prt_svc::{Client, JobSpec, Server, ServerConfig};
//! use prt_ram::UniverseSpec;
//! use std::time::Duration;
//!
//! let server = Server::spawn(ServerConfig::default()).unwrap();
//! let client = Client::connect(server.addr()).unwrap();
//! let job = JobSpec {
//!     family: "MATS+".into(),
//!     cells: 8,
//!     width: 1,
//!     spec: UniverseSpec::single_cell(),
//!     backgrounds: vec![0],
//!     lane_width: 0,
//!     deadline_ms: 0,
//!     segment: 16,
//!     topology: None,
//! };
//! let stream = client.submit(&job).unwrap();
//! assert!(stream.total() > 0);
//! let (deltas, done) = stream.drain().unwrap();
//! assert_eq!(done.evaluated, done.total);
//! assert_eq!(deltas.last().unwrap().end, done.total);
//! ```
//!
//! The wire framing, job lifecycle, shard/stream semantics and cache
//! keys are specified in `DESIGN.md` (service architecture section);
//! [`server`] documents the lifecycle from the implementation side.

pub mod cache;
pub mod cli;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::ProgramCache;
pub use client::{Client, JobStream, SvcError};
pub use proto::{
    CoverageDelta, DeltaRow, Event, JobDone, JobSpec, LookupReply, LookupSpec, StopKind,
};
pub use server::{Server, ServerConfig, ServerHandle, DEFAULT_POLY_BITS};
