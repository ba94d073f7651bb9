//! # netsim — the paper's synchronous local-broadcast network model
//!
//! This crate implements, as an executable substrate, the distributed
//! computing model of Zhao, Yu & Chen, *Near-Optimal Communication-Time
//! Tradeoff in Fault-Tolerant Computation of Aggregate Functions* (PODC'14):
//!
//! - `N` nodes on a connected undirected [`Graph`], unknown to the nodes;
//! - synchronous rounds: messages sent in round `r` arrive in round `r + 1`;
//! - every send is a **local broadcast** received by all live neighbors;
//! - crash failures scheduled by an **oblivious adversary**
//!   ([`FailureSchedule`]), root excluded;
//! - communication complexity metered in **bits per node**
//!   ([`Metrics`]), the maximum over nodes being the paper's CC.
//!
//! Protocols are per-node state machines ([`NodeLogic`]) driven by the
//! deterministic round [`Engine`]. Topology generators for the experiment
//! sweeps live in [`topology`], adversarial schedule generators in
//! [`adversary::schedules`], the flooding-primitive bookkeeping in
//! [`FloodState`], and the reference implementation the engine is checked
//! against in [`testkit`].
//!
//! ## Quick example
//!
//! ```
//! use netsim::{topology, Engine, FailureSchedule, Message, NodeId, NodeLogic, RoundCtx};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {
//!     fn bit_len(&self) -> u64 { 8 }
//! }
//!
//! struct Greeter;
//! impl NodeLogic<Hello> for Greeter {
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Hello>) {
//!         if ctx.round() == 1 {
//!             ctx.send(Hello);
//!         }
//!     }
//! }
//!
//! let g = topology::grid(3, 3);
//! let mut eng = Engine::new(g, FailureSchedule::none(), |_| Greeter);
//! eng.run(2);
//! assert_eq!(eng.metrics().total_bits(), 9 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod causal;
pub mod corpus;
pub mod diff;
pub mod engine;
pub mod flood;
pub mod graph;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod runner;
pub mod telemetry;
pub mod testkit;
pub mod timeline;
pub mod topology;
pub mod trace;

pub use adversary::{CrashEvent, FailureSchedule, Round};
pub use causal::{folded_stacks, Blame, CausalDag, Coverage, CriticalPath, Hop, UNTAGGED};
pub use corpus::{CorpusEntry, CORPUS_VERSION};
pub use diff::{diff, Delta, Divergence, DivergenceClass, TraceDiff};
pub use engine::{
    Engine, Inbox, InboxIter, Message, NodeLogic, Received, RoundCtx, RoundFlow, RunReport,
    SoaEngine, StopCause, Telemetry,
};
pub use flood::FloodState;
pub use graph::{Edge, Graph, GraphError, NodeId};
pub use metrics::{Metrics, PhaseSpan, PhaseStats};
pub use monitor::{
    BudgetRule, DecideCheck, MonitorConfig, MonitorReport, Violation, ViolationKind, Watchdog,
};
pub use runner::{
    ConsoleProgress, Histogram, PhaseAgg, Progress, ProgressSink, Runner, RunnerTelemetry,
    TrialStats, TrialSummary, WorkerLoad,
};
pub use telemetry::{
    is_valid_metric_name, FlightRecorder, FlightRecorderHandle, RecorderStats, RoundStats,
    SampleFactor, SamplingSink,
};
pub use timeline::{
    chrome_trace_json, self_time, validate_chrome_trace, CounterSample, FlowPoint, SelfTimeRow,
    Span, SpanKind, Timeline, TimelineData, TimelineFlowSink, TraceCheck,
};
pub use trace::{
    DeltaSink, Event, EventId, JsonlSink, Trace, TraceSink, Wants, TRACE_SCHEMA_COMPAT_MIN,
    TRACE_SCHEMA_VERSION,
};
