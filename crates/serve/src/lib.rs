//! `seqwm-serve` — a long-lived verification service.
//!
//! The daemon turns the repo's one-shot verification tools into a
//! service: a TCP socket speaking newline-delimited JSON-RPC 2.0
//! ([`proto`]), a bounded FIFO job queue drained by worker threads
//! ([`server`]), a persistent result cache keyed by canonical-text
//! program fingerprints ([`cache`]), and an on-disk job journal with
//! checkpoint-backed restart recovery ([`job`]).
//!
//! Methods:
//!
//! | method           | effect                                         |
//! |------------------|------------------------------------------------|
//! | `refine.check`   | SEQ refinement of a program pair (synchronous) |
//! | `explore.run`    | promising-semantics exploration (synchronous)  |
//! | `optimize.run`   | validated optimizer run over one program (sync)|
//! | `fuzz.campaign`  | start a fuzzing campaign, returns a job id     |
//! | `job.submit`     | generic async submit (`kind` selects the work) |
//! | `job.status`     | lifecycle snapshot of one job                  |
//! | `job.result`     | block for (or poll) a job's terminal outcome   |
//! | `job.events`     | replay + follow a job's streamed events        |
//! | `job.cancel`     | cancel a queued or running job                 |
//! | `server.stats`   | uptime, queue, job, cache, and perf counters   |
//! | `server.shutdown`| stop the daemon                                |
//!
//! Jobs carry per-request budgets (`fuel`, `deadline_ms`,
//! `max_memory_mb`, `max_states`); a tripped budget is a structured
//! `BUDGET_EXHAUSTED` error on that job, a panicking check is a
//! `JOB_FAILED` incident — the daemon itself never dies with a job.
//! Everything runs on std only, like the rest of the workspace.
//!
//! The daemon also defends itself: per-connection frame deadlines and
//! size caps, a connection cap, admission control with
//! `retry_after_ms` backpressure, graceful drain shutdown, and
//! CRC-checked durable state with quarantine recovery
//! ([`seqwm_explore::durable`]).
//! The `chaos` feature adds a deterministic fault proxy ([`chaos`])
//! for exercising all of it from the integration tests.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod job;
pub mod proto;
pub mod server;

pub use cache::{CacheStats, ResultCache};
#[cfg(feature = "chaos")]
pub use chaos::{corrupt_file, ChaosAction, ChaosPlan, ChaosProxy, FileChaos};
pub use job::{JobBudgets, JobKind, JobRecord, JobState};
pub use seqwm_explore::durable::{Quarantine, RecordError};
pub use server::{ServeConfig, Server};
