//! # ftagg — fault-tolerant aggregation with a near-optimal CC/TC tradeoff
//!
//! A from-scratch implementation of the protocols of Zhao, Yu & Chen,
//! *Near-Optimal Communication-Time Tradeoff in Fault-Tolerant Computation
//! of Aggregate Functions* (PODC 2014), on the synchronous local-broadcast
//! substrate of the `netsim` crate:
//!
//! - [`pair`] — **AGG** (Algorithm 2) and **VERI** (Algorithm 3), the two
//!   building blocks: a speculative tree aggregation tolerating `t` edge
//!   failures in `O(1)` flooding rounds and `O((t+1) log N)` bits, and a
//!   one-sided-error verifier for it;
//! - [`tradeoff`] — **Algorithm 1**, the upper-bound protocol of Theorem 1:
//!   `O(f/b·log²N + log²N)` bits within `b` flooding rounds;
//! - [`doubling`] — the unknown-`f` extension via the doubling trick;
//! - [`baselines`] — the comparison protocols of Figure 1: brute-force
//!   flooding and the folklore retry-until-clean tree aggregation (plus the
//!   non-fault-tolerant TAG-style aggregation);
//! - [`observe`] — the observer bundle every driver takes: trace,
//!   watchdog, timeline lane, and for the pair also extra sinks;
//! - [`bounds`] — closed forms of every bound in Figure 1;
//! - [`analysis`] — offline oracles: fragment decomposition (Figure 2) and
//!   long-failure-chain detection (Table 2's scenarios).
//!
//! Everything is generic over the aggregate operator ([`caaf::Caaf`]), per
//! the paper's observation that only commutativity + associativity + bounded
//! domain are used.
//!
//! ## Quickstart
//!
//! ```
//! use ftagg::{Instance, tradeoff::{TradeoffConfig, run_tradeoff}};
//! use netsim::{topology, FailureSchedule, NodeId};
//! use caaf::Sum;
//!
//! // 12 nodes in a grid; node 5 crashes at round 40.
//! let graph = topology::grid(3, 4);
//! let mut schedule = FailureSchedule::none();
//! schedule.crash(NodeId(5), 40);
//! let inst = Instance::new(graph, NodeId(0), (1..=12).collect(), schedule, 12)?;
//!
//! let cfg = TradeoffConfig { b: 42, c: 2, f: 4, seed: 7 };
//! let report = run_tradeoff(&Sum, &inst, &cfg);
//! assert!(report.correct, "tradeoff protocol must always be correct");
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod bounds;
pub mod config;
pub mod doubling;
pub mod interval;
pub mod monitored;
pub mod msg;
pub mod observe;
pub mod pair;
pub mod run;
pub mod tradeoff;

pub use config::{Instance, Model};
pub use monitored::{decide_envelope, pair_monitor_config};
pub use observe::{Observe, Observed};
pub use pair::{AggOutcome, NodeSnapshot, PairNode, PairParams};
pub use run::{run_pair, run_pair_observed, run_pair_with_schedule, PairReport};
