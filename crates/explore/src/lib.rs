//! `seqwm-explore`: a generic, parallel, deduplicated state-space
//! exploration engine.
//!
//! Every correctness claim in this reproduction — litmus behavior sets
//! (§5), optimizer validation, adequacy fuzzing (Thm. 6.2) — bottoms
//! out in a bounded-exhaustive state-space search. This crate factors
//! that search out of the individual semantics into one engine:
//!
//! * [`TransitionSystem`] — the interface a semantics implements:
//!   initial state, per-agent successor groups, terminal-behavior
//!   extraction. Implemented by the PS^na machine, the SC baseline
//!   (both in `seqwm-promising`) and the SEQ permission machine
//!   (`seqwm-seq`).
//! * [`explore`] / [`try_explore`] — the engine: fingerprint-sharded
//!   visited set ([`VisitedMode`]), sleep-set/ample-set interleaving
//!   reduction, a work-stealing parallel frontier on plain
//!   `std::thread`, pluggable strategies ([`Strategy`]) and budgets
//!   ([`ExploreConfig`]), and a structured [`ExploreStats`] report.
//! * **Fault tolerance** — panics in transition-system callbacks are
//!   caught, retried, and quarantined ([`ExploreIncident`]); long runs
//!   checkpoint to disk and resume ([`CheckpointSpec`]); a memory
//!   budget degrades the visited set instead of aborting
//!   ([`ExploreWarning::MemoryDowngrade`]). See the failure-model
//!   notes in `engine.rs` and the typed hierarchy in [`error`].
//! * [`SplitMix64`] — a dependency-free seeded PRNG for the random
//!   walk strategy and the litmus program generator.
//! * [`fp64`]/[`fp128`]/[`FxHasher`] — internal state fingerprinting.
//! * [`durable`] — the one synced atomic-write path, quarantine, CRC
//!   envelope and record cache behind every file the workspace trusts
//!   on a later run.
//!
//! With the `fault-injection` feature, a deterministic [`FaultPlan`]
//! can force panics, delays, and visited-set downgrades on a seeded
//! subset of states — the repository's `tests/fault_injection.rs`
//! uses it to check that recovered faults never change behavior sets.
//!
//! The reduction never drops a behavior reachable by the unreduced
//! search (see the soundness notes on [`AgentGroup`] and in
//! `engine.rs`); the repository's `tests/explore_differential.rs`
//! checks this against the seed explorer over the full litmus corpus.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod checkpoint;
pub mod counters;
pub mod durable;
pub mod engine;
pub mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod fingerprint;
pub mod rng;
mod spill;
pub mod stats;
pub mod system;

pub use checkpoint::CHECKPOINT_VERSION;
pub use counters::CounterSnapshot;
pub use engine::{
    explore, try_explore, CheckpointSpec, ExploreConfig, ExploreResult, ReductionRules, Strategy,
    VisitedMode,
};
pub use error::{
    CorruptReason, ExploreError, ExploreIncident, ExploreWarning, IncidentKind, StopReason,
};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, InjectedFault};
pub use fingerprint::{fp128, fp64, FxHasher};
pub use rng::{mix64, SplitMix64};
pub use spill::{SpillSpec, SPILL_VERSION};
pub use stats::ExploreStats;
pub use system::{
    groups_independent, AgentGroup, IndependenceRule, StepTags, Target, Transition,
    TransitionSystem,
};
