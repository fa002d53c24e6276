//! `prix-server` — a zero-dependency HTTP/1.1 serving layer for the
//! PRIX engine.
//!
//! The paper's prototype ran one query per process; a production PRIX
//! amortizes its B⁺-tree/trie build cost across millions of queries,
//! which needs a long-lived server. This crate provides it without
//! adding a single external dependency: an HTTP parser ([`http`]), a
//! bounded worker pool with fail-fast admission control ([`workers`]),
//! epoch-keyed plan and result caches ([`cache`]), Prometheus-style
//! metrics ([`metrics`]), a JSON writer ([`json`]), and the server
//! itself ([`server`]).
//!
//! The server takes a [`prix_core::PrixEngine`] and keeps it behind a
//! [`prix_core::SharedEngine`]: every handler reaches the index through
//! `SharedEngine::snapshot()` — the engine itself answers no queries —
//! and the alternative-engine substrates ([`alts`]) are built from that
//! same snapshot. `prix query --engine`, the routing bench and the
//! agreement tests build theirs through [`AltCache`] too.
//!
//! ```no_run
//! use prix_core::PrixEngine;
//! use prix_server::{Server, ServerConfig};
//!
//! let engine = PrixEngine::reopen("db.prix", 2000).unwrap();
//! let handle = Server::start(engine, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", handle.addr());
//! handle.wait().unwrap(); // until POST /shutdown
//! ```

pub mod alts;
pub mod cache;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod workers;

pub use alts::{AltCache, SnapshotAlts};
pub use cache::{CacheSnapshot, PlanCache, ResultCache, ResultKey};
pub use http::{Request, Response};
pub use metrics::{Endpoint, Metrics, Sample, LATENCY_BUCKETS_US};
pub use server::{Server, ServerConfig, ServerHandle};
pub use workers::WorkerPool;
