//! # nd-serve — always-on discovery planning behind a versioned API
//!
//! The batch tools answer "what is the optimal schedule?" once per
//! invocation; this crate keeps the answer *on tap*. `nd-serve` is a
//! long-running daemon, hand-rolled on [`std::net::TcpListener`] (zero
//! registry dependencies, like everything in this workspace), that
//! answers the `nd-opt` planning queries — `front`, `best`, `gap` —
//! over HTTP/JSON.
//!
//! Layers, top to bottom:
//!
//! - **[`api`]** — the `nd-serve-api/v1` envelope: explicit version
//!   tags on every request and response, a typed error taxonomy with
//!   stable wire codes, and a query payload that *is* the `nd-opt` spec
//!   grammar ([`nd_opt::OptSpec::from_value`]) — CLI spec files and
//!   service requests are one grammar with one content hash.
//! - **[`service`]** — the [`Planner`]: an in-memory memo over
//!   completed searches (`nd-opt`'s typed outcomes, which every endpoint
//!   renders its answer from) plus *request coalescing* (N concurrent
//!   identical cache-miss requests cost exactly one evaluation,
//!   observable via the `serve.coalesced` counter), backed by the
//!   shared on-disk [`nd_sweep::ResultCache`]; misses evaluate on the
//!   same `pool::run_parallel` worker pool the CLIs use. The [`App`]
//!   router adds per-request `serve.request` spans and per-endpoint
//!   latency histograms.
//! - **[`stages`]** — one background pass, **ingest → execute →
//!   prune**, on an interval: spool-directory spec pickup (files over
//!   the 1 MiB body cap are rejected unread), pre-warming execution, and
//!   cache GC.
//! - **[`http`]** — the minimal HTTP/1.1 transport: keep-alive, bounded
//!   bodies, a fixed worker pool off one accept loop.
//!
//! Start it and ask:
//!
//! ```text
//! $ nd-serve serve --addr 127.0.0.1:7077 --stats &
//! $ curl -s -X POST 127.0.0.1:7077/v1/front -d '{
//!     "api": "nd-serve-api/v1",
//!     "spec": {"name": "q", "backend": "exact", "metric": "two-way",
//!              "opt": {"protocols": ["optimal"]}}}'
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod http;
pub mod service;
pub mod stages;

pub use api::{parse_request, success_body, ApiError, Endpoint, Request, API_VERSION};
pub use service::{App, Health, Planner, Served};
pub use stages::{run_pass, Pass};
