//! Terminal bar charts and shared report renderers for the harness.
//!
//! The figure bins print their series as log-scale horizontal bars next to
//! the numeric tables, so the *shape* claims of EXPERIMENTS.md (curves
//! falling like `f/b`, crossovers, floors) are visible at a glance in the
//! harness output itself.
//!
//! The phase-table and histogram renderers here are the single source of
//! the ASCII layouts shared by `ftagg-cli report` and the experiment bins
//! (previously copied in each).

use crate::Table;
use netsim::{Blame, CriticalPath, Delta, Histogram, NodeId, PhaseAgg, PhaseStats};

/// A phase label indented two spaces per nesting depth, as every phase
/// table prints it.
pub fn indent_label(depth: usize, label: &str) -> String {
    format!("{}{}", "  ".repeat(depth), label)
}

/// The standard per-run phase table ([`netsim::Metrics::phases`] rows):
/// label (indented by depth), rounds, global window, bits, sends, depth.
pub fn phase_stats_table(phases: &[PhaseStats]) -> Table {
    let mut t = Table::new(vec!["label", "rounds", "window", "bits", "sends", "depth"]);
    for ph in phases {
        t.row(vec![
            indent_label(ph.depth, &ph.label),
            ph.rounds.to_string(),
            format!("{}..{}", ph.start, ph.end),
            ph.bits.to_string(),
            ph.sends.to_string(),
            ph.depth.to_string(),
        ]);
    }
    t
}

/// The standard cross-trial phase table ([`PhaseAgg`] rows): label, span
/// count, mean/worst bits, summed/worst rounds.
pub fn phase_agg_table(aggs: &[PhaseAgg]) -> Table {
    let mut t =
        Table::new(vec!["label", "spans", "mean bits", "worst bits", "sum rounds", "worst"]);
    for agg in aggs {
        t.row(vec![
            agg.label.clone(),
            agg.spans.to_string(),
            format!("{:.0}", agg.mean_bits()),
            agg.worst_bits.to_string(),
            agg.sum_rounds.to_string(),
            agg.worst_rounds.to_string(),
        ]);
    }
    t
}

/// The per-node, per-message-kind CC blame table ([`netsim::Blame`]):
/// one row per node that sent anything, one column per kind, the node
/// total last, and a final `all` row of per-kind totals. Because blame
/// partitions `Metrics::bits_of`, each row's kinds sum to its total.
pub fn blame_table(blame: &Blame) -> Table {
    let kinds = blame.kinds();
    let mut headers: Vec<String> = vec!["node".into()];
    headers.extend(kinds.iter().cloned());
    headers.push("total".into());
    let mut t = Table::new(headers);
    for v in (0..blame.n() as u32).map(NodeId) {
        if blame.node_total(v) == 0 {
            continue;
        }
        let mut cells = vec![format!("n{}", v.0)];
        cells.extend(kinds.iter().map(|k| blame.bits(v, k).to_string()));
        cells.push(blame.node_total(v).to_string());
        t.row(cells);
    }
    let mut all = vec!["all".to_string()];
    all.extend(kinds.iter().map(|k| blame.kind_total(k).to_string()));
    all.push(kinds.iter().map(|k| blame.kind_total(k)).sum::<u64>().to_string());
    t.row(all);
    t
}

/// The critical-path table ([`netsim::CriticalPath`] hops): one row per
/// broadcast on the decisive causal chain, ending in the decision row.
pub fn critical_path_table(cp: &CriticalPath) -> Table {
    let mut t = Table::new(vec!["hop", "node", "round", "kind", "bits", "slack"]);
    for (i, h) in cp.hops.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            format!("n{}", h.node.0),
            h.round.to_string(),
            h.kind.clone(),
            h.bits.to_string(),
            h.slack.to_string(),
        ]);
    }
    t.row(vec![
        "·".to_string(),
        format!("n{}", cp.decide_node.0),
        cp.decide_round.to_string(),
        "decide".to_string(),
        String::new(),
        String::new(),
    ]);
    t
}

/// The metric-delta table rendered by `ftagg-cli diff` for each
/// [`netsim::TraceDiff`] partition (nodes, message kinds, phases): one
/// row per differing label with both sides and the signed change.
pub fn delta_table(deltas: &[Delta]) -> Table {
    let mut t = Table::new(vec!["label", "left", "right", "delta"]);
    for d in deltas {
        t.row(vec![
            d.label.clone(),
            d.left.to_string(),
            d.right.to_string(),
            format!("{:+}", d.signed()),
        ]);
    }
    t
}

/// The timeline self-time table rendered by `ftagg-cli timeline --top`:
/// one row per `(span kind, label)` aggregate, ranked by self time (the
/// wall time inside the span but outside its direct children), with the
/// inclusive total alongside.
pub fn self_time_table(rows: &[netsim::SelfTimeRow], top: usize) -> Table {
    let mut t = Table::new(vec!["kind", "label", "count", "self", "total"]);
    for r in rows.iter().take(top) {
        t.row(vec![
            format!("{:?}", r.kind).to_lowercase(),
            r.label.clone(),
            r.count.to_string(),
            human_ns(r.self_ns),
            human_ns(r.total_ns),
        ]);
    }
    t
}

/// Wall-clock nanoseconds in the largest unit that keeps three or fewer
/// integral digits (`842ns`, `13.1us`, `2.50ms`, `1.20s`).
pub fn human_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

/// A [`Histogram`] rendered as `[lo, hi]  ###` bucket lines (one `#` per
/// sample), as the CLI report prints CC/round distributions.
pub fn histogram_lines(hist: &Histogram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (lo, hi, count) in hist.bars() {
        let _ = writeln!(out, "  [{lo:>8}, {hi:>8}]  {}", "#".repeat(count as usize));
    }
    out
}

/// A labeled series rendered as horizontal bars.
#[derive(Clone, Debug, Default)]
pub struct BarChart {
    title: String,
    rows: Vec<(String, f64)>,
    log_scale: bool,
    width: usize,
}

impl BarChart {
    /// A chart with a title, linear scale, 48-column bars.
    pub fn new(title: impl Into<String>) -> Self {
        BarChart { title: title.into(), rows: Vec::new(), log_scale: false, width: 48 }
    }

    /// Switches to log₂ scale (for CC series spanning decades).
    pub fn log_scale(mut self) -> Self {
        self.log_scale = true;
        self
    }

    /// Sets the maximum bar width in characters.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn width(mut self, width: usize) -> Self {
        assert!(width > 0, "bar width must be positive");
        self.width = width;
        self
    }

    /// Adds one bar.
    pub fn bar(&mut self, label: impl Into<String>, value: f64) -> &mut Self {
        self.rows.push((label.into(), value.max(0.0)));
        self
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        if self.rows.is_empty() {
            let _ = writeln!(out, "  (no data)");
            return out;
        }
        let scale = |v: f64| -> f64 {
            if self.log_scale {
                (v.max(1.0)).log2()
            } else {
                v
            }
        };
        let max_scaled = self.rows.iter().map(|(_, v)| scale(*v)).fold(0.0f64, f64::max).max(1e-12);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, v) in &self.rows {
            let filled = ((scale(*v) / max_scaled) * self.width as f64).round() as usize;
            let filled = filled.min(self.width);
            let _ = writeln!(
                out,
                "  {label:>label_w$} │{}{} {v:.0}",
                "█".repeat(filled),
                " ".repeat(self.width - filled),
            );
        }
        out
    }

    /// Prints the chart to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_proportional_bars() {
        let mut c = BarChart::new("test").width(10);
        c.bar("a", 10.0).bar("b", 5.0).bar("c", 0.0);
        let out = c.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        let bars: Vec<usize> = lines[1..].iter().map(|l| l.matches('█').count()).collect();
        assert_eq!(bars, vec![10, 5, 0]);
        assert!(lines[1].ends_with("10"));
    }

    #[test]
    fn log_scale_compresses() {
        let mut c = BarChart::new("log").log_scale().width(16);
        c.bar("big", 1024.0).bar("small", 32.0);
        let out = c.render();
        let bars: Vec<usize> = out.lines().skip(1).map(|l| l.matches('█').count()).collect();
        // log2: 10 vs 5 → 16 vs 8 chars.
        assert_eq!(bars, vec![16, 8]);
    }

    #[test]
    fn empty_chart_says_so() {
        assert!(BarChart::new("x").render().contains("no data"));
    }

    #[test]
    fn phase_tables_and_histograms_render() {
        let phases = vec![PhaseStats {
            label: "AGG".into(),
            start: 1,
            end: 4,
            rounds: 4,
            bits: 96,
            sends: 3,
            depth: 1,
        }];
        let out = phase_stats_table(&phases).render();
        assert!(out.contains("  AGG"), "{out}");
        assert!(out.contains("1..4"), "{out}");
        assert!(out.contains("96"), "{out}");

        let aggs = vec![PhaseAgg {
            label: "interval 0".into(),
            spans: 2,
            sum_bits: 10,
            worst_bits: 7,
            sum_sends: 2,
            sum_rounds: 8,
            worst_rounds: 5,
        }];
        let out = phase_agg_table(&aggs).render();
        assert!(out.contains("interval 0"), "{out}");
        assert!(out.contains("worst bits"), "{out}");

        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        let lines = histogram_lines(&h);
        assert!(lines.contains("##"), "{lines}");
        assert_eq!(indent_label(2, "x"), "    x");
    }

    #[test]
    fn labels_align() {
        let mut c = BarChart::new("t").width(4);
        c.bar("xx", 1.0).bar("yyyy", 1.0);
        let out = c.render();
        let starts: Vec<usize> = out.lines().skip(1).map(|l| l.find('│').unwrap()).collect();
        assert_eq!(starts[0], starts[1]);
    }
}
