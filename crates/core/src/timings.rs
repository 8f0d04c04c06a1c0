//! Per-phase wall-clock timings of a fit.
//!
//! The estimator reads an [`std::time::Instant`] at the start of each
//! phase and [`PhaseTimings::record`]s the elapsed time when it ends.
//! The result travels inside `FitReport::timings` and renders via
//! `Display` for the CLI's `--timings` flag. Unlike trace spans, timings
//! are recorded whether or not a recorder is installed.

use gpm_json::impl_json;
use std::fmt;
use std::time::Duration;

/// Aggregated wall-clock time of one named phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseTiming {
    /// Phase label (e.g. `"voltage_step"`).
    pub label: String,
    /// Number of times the phase ran.
    pub calls: u64,
    /// Total wall-clock time across all calls, in nanoseconds (exact
    /// through the JSON round trip).
    pub total_ns: u64,
}

impl_json!(struct PhaseTiming { label, calls, total_ns });

/// A per-phase wall-clock report, ordered by descending total time
/// (ties by label).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    entries: Vec<PhaseTiming>,
}

impl_json!(struct PhaseTimings {
    entries = Vec::new()
});

impl PhaseTimings {
    /// The phases, ordered by descending total time.
    pub fn entries(&self) -> &[PhaseTiming] {
        &self.entries
    }

    /// Total wall-clock time of one phase, if recorded.
    pub fn total_of(&self, label: &str) -> Option<Duration> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .map(|e| Duration::from_nanos(e.total_ns))
    }

    /// Adds one call of `label` lasting `elapsed`. Only a phase's first
    /// call allocates, so a fit's iterations record theirs for free.
    pub(crate) fn record(&mut self, label: &str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        match self.entries.iter_mut().find(|e| e.label == label) {
            Some(e) => {
                e.calls += 1;
                e.total_ns = e.total_ns.saturating_add(ns);
            }
            None => self.entries.push(PhaseTiming {
                label: label.to_string(),
                calls: 1,
                total_ns: ns,
            }),
        }
        self.entries
            .sort_unstable_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(&b.label)));
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "  (no phases recorded)");
        }
        let secs = |ns: u64| Duration::from_nanos(ns).as_secs_f64();
        let grand = secs(self.entries.iter().map(|e| e.total_ns).sum());
        for e in &self.entries {
            let share = if grand > 0.0 {
                100.0 * secs(e.total_ns) / grand
            } else {
                0.0
            };
            writeln!(
                f,
                "  {:<24} {:>10.3} ms  {:>6} calls  {:>5.1}%",
                e.label,
                secs(e.total_ns) * 1e3,
                e.calls,
                share
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_in_descending_total_order() {
        let mut t = PhaseTimings::default();
        for _ in 0..3 {
            t.record("phase_a", Duration::from_millis(1));
        }
        t.record("large", Duration::from_millis(50));
        t.record("tie_b", Duration::from_millis(7));
        t.record("tie_a", Duration::from_millis(7));
        let labels: Vec<&str> = t.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["large", "tie_a", "tie_b", "phase_a"]);
        assert_eq!(t.entries()[3].calls, 3);
        assert_eq!(t.total_of("phase_a"), Some(Duration::from_millis(3)));
        assert_eq!(t.total_of("phase_c"), None);
    }

    #[test]
    fn display_renders_one_line_per_phase() {
        let mut t = PhaseTimings::default();
        t.record("alpha", Duration::from_millis(2));
        t.record("beta", Duration::from_millis(8));
        let text = t.to_string();
        assert!(text.contains("alpha") && text.contains("80.0%"), "{text}");
        // Empty reports render a placeholder instead of nothing.
        assert!(PhaseTimings::default().to_string().contains("no phases"));
    }

    #[test]
    fn timings_round_trip_through_json_exactly() {
        let mut t = PhaseTimings::default();
        t.record("voltage_step", Duration::from_nanos(123_456_789));
        t.record("voltage_step", Duration::from_nanos(1));
        t.record("coefficient_step", Duration::from_secs(2));
        let text = gpm_json::to_string(&t).unwrap();
        assert_eq!(
            text,
            "{\"entries\":[{\"label\":\"coefficient_step\",\"calls\":1,\"total_ns\":2000000000},\
             {\"label\":\"voltage_step\",\"calls\":2,\"total_ns\":123456790}]}"
        );
        assert_eq!(gpm_json::from_str::<PhaseTimings>(&text).unwrap(), t);
        // A missing `entries` field reads as empty (FitReport default).
        assert_eq!(gpm_json::from_str("{}"), Ok(PhaseTimings::default()));
    }
}
