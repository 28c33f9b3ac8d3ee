//! Coverage aggregation: per-class rows, whole-universe reports and the
//! [`ClassTally`] accumulator shared by every campaign consumer.
//!
//! These types lived in `prt-march` historically (they are re-exported
//! from there unchanged); they moved next to the engine so that any runner
//! — March, π-test, PRT scheme or closure — aggregates through one code
//! path instead of five hand-rolled copies of the same row-bumping loop.

use crate::StopCause;

/// The explicit mark a stopped run leaves on its report: how far the
/// campaign got before the deadline or cancellation hit, and why it
/// stopped. Rows of a partial report tally only the evaluated prefix
/// `[0, evaluated)` of the universe — detected-so-far plus a cursor, never
/// a silently wrong total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialCoverage {
    /// Trials evaluated (the contiguous universe prefix — also the
    /// checkpoint cursor when checkpointing is on).
    pub evaluated: usize,
    /// Trials in the whole universe.
    pub total: usize,
    /// Why the run stopped.
    pub cause: StopCause,
}

/// Coverage of one fault class by one test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageRow {
    /// Fault-class mnemonic (`"SAF"`, `"TF"`, …).
    pub class: &'static str,
    /// Instances detected.
    pub detected: usize,
    /// Instances in the universe.
    pub total: usize,
}

impl CoverageRow {
    /// Detection ratio in percent.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }

    /// `true` when every instance was detected.
    pub fn complete(&self) -> bool {
        self.detected == self.total
    }
}

/// Aggregated coverage of a whole universe.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    test_name: String,
    rows: Vec<CoverageRow>,
    partial: Option<PartialCoverage>,
    degraded_batches: usize,
}

impl CoverageReport {
    /// Assembles a report from pre-computed rows. Public so that any test
    /// engine can report coverage in the same format.
    pub fn from_rows(test_name: impl Into<String>, rows: Vec<CoverageRow>) -> CoverageReport {
        CoverageReport { test_name: test_name.into(), rows, partial: None, degraded_batches: 0 }
    }

    pub(crate) fn set_partial(&mut self, partial: PartialCoverage) {
        self.partial = Some(partial);
    }

    pub(crate) fn set_degraded_batches(&mut self, degraded: usize) {
        self.degraded_batches = degraded;
    }

    /// `Some` when the run stopped early (deadline or cancellation): the
    /// rows then cover only the evaluated universe prefix.
    pub fn partial(&self) -> Option<PartialCoverage> {
        self.partial
    }

    /// `true` for a report whose rows cover only part of the universe.
    pub fn is_partial(&self) -> bool {
        self.partial.is_some()
    }

    /// Lane batches that panicked and were retried on the scalar oracle
    /// (graceful degradation). The verdicts behind a degraded report are
    /// still exact — the scalar retry *is* the reference engine — but a
    /// nonzero counter flags that the batch path misbehaved.
    pub fn degraded_batches(&self) -> usize {
        self.degraded_batches
    }

    /// Name of the evaluated test.
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// Per-class rows in first-seen order.
    pub fn rows(&self) -> &[CoverageRow] {
        &self.rows
    }

    /// The row for a class, if present in the universe.
    pub fn class(&self, mnemonic: &str) -> Option<CoverageRow> {
        self.rows.iter().copied().find(|r| r.class == mnemonic)
    }

    /// Overall detection ratio in percent.
    pub fn overall_percent(&self) -> f64 {
        let (d, t) =
            self.rows.iter().fold((0usize, 0usize), |(d, t), r| (d + r.detected, t + r.total));
        if t == 0 {
            100.0
        } else {
            100.0 * d as f64 / t as f64
        }
    }

    /// `true` when every instance of every class was detected — never for
    /// a partial report, whose unevaluated tail is unknown.
    pub fn complete(&self) -> bool {
        self.partial.is_none() && self.rows.iter().all(CoverageRow::complete)
    }
}

/// Accumulates `(class, detected)` observations into [`CoverageRow`]s in
/// first-seen class order — the single home of the row-bumping loop that
/// used to be copy-pasted across the March evaluator, the PRT scheme
/// coverage, the bit-plane coverage and the experiment binaries.
#[derive(Debug, Clone, Default)]
pub struct ClassTally {
    rows: Vec<CoverageRow>,
    /// The row the last record bumped.
    last: usize,
}

impl ClassTally {
    /// An empty tally.
    pub fn new() -> ClassTally {
        ClassTally::default()
    }

    /// Records one fault instance of `class`. Faults arrive grouped by
    /// class, so the row bumped last is checked first, by pointer: a
    /// mnemonic is a `'static` literal, and the same literal compares
    /// equal without reading its bytes. A miss falls back to the search
    /// by content.
    pub fn record(&mut self, class: &'static str, detected: bool) {
        if !self.rows.get(self.last).is_some_and(|r| std::ptr::eq(r.class, class)) {
            self.last = match self.rows.iter().position(|r| r.class == class) {
                Some(at) => at,
                None => {
                    self.rows.push(CoverageRow { class, detected: 0, total: 0 });
                    self.rows.len() - 1
                }
            };
        }
        let row = &mut self.rows[self.last];
        row.total += 1;
        row.detected += usize::from(detected);
    }

    /// The rows accumulated so far, in first-seen class order.
    pub fn rows(&self) -> &[CoverageRow] {
        &self.rows
    }

    /// Finishes the tally into a named report.
    pub fn into_report(self, test_name: impl Into<String>) -> CoverageReport {
        CoverageReport::from_rows(test_name, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_keeps_first_seen_order_and_counts() {
        let mut t = ClassTally::new();
        t.record("SAF", true);
        t.record("TF", false);
        t.record("SAF", false);
        t.record("TF", true);
        t.record("TF", true);
        let report = t.into_report("demo");
        assert_eq!(report.test_name(), "demo");
        let rows = report.rows();
        assert_eq!(rows[0].class, "SAF");
        assert_eq!((rows[0].detected, rows[0].total), (1, 2));
        assert_eq!(rows[1].class, "TF");
        assert_eq!((rows[1].detected, rows[1].total), (2, 3));
        assert!((report.overall_percent() - 60.0).abs() < 1e-12);
        assert!(!report.complete());
    }

    #[test]
    fn empty_report_is_complete() {
        let r = ClassTally::new().into_report("none");
        assert!(r.complete());
        assert!((r.overall_percent() - 100.0).abs() < f64::EPSILON);
        assert!(r.class("SAF").is_none());
    }

    #[test]
    fn row_percentages() {
        let row = CoverageRow { class: "SAF", detected: 3, total: 4 };
        assert!((row.percent() - 75.0).abs() < 1e-12);
        assert!(!row.complete());
        let empty = CoverageRow { class: "TF", detected: 0, total: 0 };
        assert!((empty.percent() - 100.0).abs() < f64::EPSILON);
        assert!(empty.complete());
    }
}
