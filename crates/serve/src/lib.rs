//! The serving layer: fit once, serve many.
//!
//! Every other crate in the workspace answers power questions by linking
//! the pipeline and re-fitting in-process. This crate turns a fitted
//! [`gpm_core::PowerModel`] into a long-lived predictor behind a small
//! service stack:
//!
//! - [`ModelRegistry`] — versioned JSON persistence of fitted models and
//!   their [`gpm_core::FitReport`] metadata, with load/list/activate and
//!   a schema-compatibility check on load. Registry writes go through
//!   [`gpm_json::to_string_checked`], so a degraded fit with `NaN`
//!   coefficients fails with a typed error instead of persisting
//!   garbage.
//! - [`PredictionEngine`] — typed requests ([`Request`]: power at a
//!   configuration, energy for a kernel, best configuration under an
//!   [`gpm_dvfs::Objective`], Pareto frontier slice), a sharded LRU
//!   prediction cache keyed by the request's typed fields, and
//!   micro-batch execution that fans pure work across `gpm-par` workers.
//!   Results are bit-identical to direct `Estimator`/`Governor` calls at
//!   any worker-thread count: pure requests run on clones of a pristine
//!   device snapshot, and governor-backed requests run sequentially in
//!   arrival order against the engine's device.
//! - [`ServerHandle`] — a micro-batching server over a length-prefixed
//!   JSON protocol on TCP ([`proto`]), plus an in-process [`Client`] for
//!   tests and benches. The TCP front end is a dependency-free
//!   nonblocking reactor: per-core shards (epoll on Linux, `poll(2)`
//!   elsewhere on Unix, via the syscall shims in [`sys`]) own their
//!   connections outright, coalesce decoded requests into adaptive
//!   micro-batches and answer pure requests in place, while
//!   governor-backed requests funnel through the single engine thread
//!   that the determinism contract requires. Admission control is
//!   explicit: a bounded queue, a per-connection in-flight cap, and
//!   load shedding with a typed [`Reply::Overloaded`] instead of
//!   unbounded buffering. Shutdown drains every admitted request before
//!   the threads exit.
//!
//! The whole path is instrumented through `gpm-obs` (request/batch/shed
//! counters, queue-depth gauge, latency histograms, cache hit/miss).
//!
//! # Example
//!
//! ```no_run
//! use gpm_serve::{Client, EngineConfig, PredictionEngine, Request, ServerConfig, ServerHandle};
//! use gpm_spec::FreqConfig;
//!
//! # fn model() -> gpm_core::PowerModel { unimplemented!() }
//! let engine = PredictionEngine::new(model(), "gtx@v1", &EngineConfig::default());
//! let handle = ServerHandle::spawn(engine, ServerConfig::default());
//! let client = handle.client();
//! let reply = client.call(Request::Energy {
//!     kernel: "LBM".to_string(),
//!     config: FreqConfig::from_mhz(975, 3505),
//! });
//! println!("{reply:?}");
//! let (_engine, stats) = handle.shutdown();
//! assert_eq!(stats.shed, 0);
//! ```

// `deny` rather than `forbid`: the one `sys` module below needs an
// allowance for its FFI readiness-polling shims; everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
pub mod proto;
#[cfg(unix)]
mod reactor;
mod registry;
mod request;
mod server;
#[allow(unsafe_code)]
pub mod sys;
#[doc(hidden)]
pub mod test_support;

pub use cache::CacheStats;
pub use engine::{EngineConfig, EngineStats, PredictionEngine};
pub use registry::{
    EntryHealth, FsckEntry, FsckReport, ModelInfo, ModelRegistry, RecoveryReport, RegistryEntry,
    QUARANTINE_SUFFIX, REGISTRY_SCHEMA_VERSION,
};
pub use request::{Reply, Request, Response};
pub use server::{BackoffPolicy, Client, ServeStats, ServerConfig, ServerHandle, TcpClient};

use gpm_json::JsonError;
use std::fmt;

/// Failure modes of the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// Registry file I/O failed.
    Io(std::io::Error),
    /// A registry file or wire payload failed to parse.
    Json(JsonError),
    /// Serialization was refused because the value contains a
    /// non-finite number (e.g. a degraded robust fit with `NaN`
    /// coefficients) — persisting it would not round-trip.
    NonFinite(JsonError),
    /// A registry entry was written by an incompatible (newer) schema.
    SchemaIncompatible {
        /// Schema version found in the file.
        found: u32,
        /// Highest schema version this build understands.
        supported: u32,
    },
    /// No model with that name exists in the registry.
    UnknownModel(String),
    /// The model exists but not at that version.
    UnknownVersion {
        /// Model name.
        name: String,
        /// Requested version.
        version: u32,
    },
    /// The registry has no active model.
    NoActiveModel,
    /// Model names are restricted to `[A-Za-z0-9._-]` (they become file
    /// names).
    InvalidName(String),
    /// A persisted artifact failed its integrity check (length/CRC-32
    /// trailer mismatch): a torn write or on-disk corruption.
    Corrupt {
        /// What failed the check (e.g. `titan@v2` or `ACTIVE`).
        what: String,
        /// Why the check failed.
        reason: String,
    },
    /// A request exceeded its per-request deadline budget before the
    /// engine could answer it.
    DeadlineExceeded {
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "registry i/o error: {e}"),
            ServeError::Json(e) => write!(f, "registry parse error: {e}"),
            ServeError::NonFinite(e) => {
                write!(f, "refusing to persist non-finite model parameters: {e}")
            }
            ServeError::SchemaIncompatible { found, supported } => write!(
                f,
                "registry entry uses schema v{found}, but this build supports up to v{supported}"
            ),
            ServeError::UnknownModel(name) => write!(f, "no model named `{name}` in the registry"),
            ServeError::UnknownVersion { name, version } => {
                write!(f, "model `{name}` has no version v{version}")
            }
            ServeError::NoActiveModel => write!(f, "the registry has no active model"),
            ServeError::InvalidName(name) => write!(
                f,
                "invalid model name `{name}` (use letters, digits, `.`, `_`, `-`)"
            ),
            ServeError::Corrupt { what, reason } => {
                write!(f, "registry artifact `{what}` is corrupt: {reason}")
            }
            ServeError::DeadlineExceeded { budget_ms } => {
                write!(f, "request exceeded its {budget_ms} ms deadline budget")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Json(e) | ServeError::NonFinite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        ServeError::Json(e)
    }
}
