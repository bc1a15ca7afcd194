//! # graphalytics-faults
//!
//! Deterministic fault injection and recovery machinery (DESIGN.md §5c).
//!
//! The paper's Figure 4 treats platform failures as first-class benchmark
//! results ("missing values indicate failures"), and the successor LDBC
//! Graphalytics specification promotes *robustness* — failure behavior and
//! recovery cost — to its own benchmark dimension. This crate supplies the
//! ingredients:
//!
//! * [`FaultPlan`] — a pure function from `(seed, site)` to "does a fault
//!   strike here?". No wall clock, no OS entropy: the same seed and the
//!   same sites produce the same faults regardless of thread interleaving
//!   or call order, so faulty runs are as reproducible as clean ones.
//! * [`FaultSite`] — the typed injection points the engines register:
//!   worker crash at a superstep boundary (pregel), partition loss during
//!   a shuffle (dataflow), transient I/O in a task attempt (mapreduce),
//!   allocation failure under a memory budget (columnar/dataflow). Each
//!   site carries its attempt/incarnation counter, so a *retried* attempt
//!   re-rolls the dice instead of deterministically failing forever.
//! * [`FaultInjector`] — wraps a plan with thread-safe injection and
//!   recovery logs, the evidence the determinism tests compare.
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   seed-derived jitter in virtual milliseconds: the backoff is recorded
//!   with each retry, never slept (determinism-critical code never reads
//!   real time).
//! * [`Snapshot`] — the pregel engine's superstep-boundary checkpoint
//!   (vertex state + pending messages) in the `graphalytics-codec`
//!   encoding, round-trip-exact by construction.
//!
//! The crate depends on nothing but `graphalytics-codec` and sits below
//! `graphalytics-core`: engines reach the injector through the harness's
//! `RunContext`, and with no injector attached every hook is a no-op.

mod checkpoint;
mod injector;
mod plan;
mod retry;

pub use checkpoint::Snapshot;
pub use injector::{FaultInjector, RecoveryAction, RecoveryEvent};
pub use plan::{fingerprint, FaultKind, FaultPlan, FaultSite};
pub use retry::RetryPolicy;
