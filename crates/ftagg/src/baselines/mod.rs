//! The comparison protocols of Figure 1.
//!
//! - [`brute`] — flood every `⟨id, input⟩`: O(1) TC, O(N log N) CC,
//!   tolerates any number of failures;
//! - [`folklore`] — retry plain tree aggregation until a failure-free run:
//!   O(f) TC, O(f log N) CC (and, with the retry loop disabled, the
//!   non-fault-tolerant TAG baseline).

pub mod brute;
pub mod folklore;

pub use brute::{run_brute, run_brute_observed, BruteReport};
pub use folklore::{run_folklore, run_tag_once, AttemptReport, FolkloreReport};
