//! What a run reports: named metrics with units and sample counts, the
//! operations attempted and failed, and the output-check verdict. The last
//! line of standard output is the machine-readable result.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
}

/// The counters of operations made into the program and of checks failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs compared against a reference or the baseline interpreter.
    pub checked: u64,
    /// First few failure messages, for the human-readable log.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Record the verdict of an output check on an operation already
    /// counted; a mismatch turns that operation into a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Further figures printed for people (derived names such as
    /// `sweep_trials_per_s`), not part of the result line.
    pub extra: Vec<Metric>,
    pub tally: Tally,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn extra(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn absorb(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.extra.extend(other.extra);
        self.tally.absorb(other.tally);
    }

    /// Whether the run may be called correct: something was attempted and
    /// checked, and nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.checked > 0 && self.tally.failed == 0
    }

    /// Human-readable lines, one per metric, with unit and sample count.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (kind, list) in [("metric", &self.metrics), ("extra", &self.extra)] {
            for m in list {
                let _ = writeln!(
                    out,
                    "{kind} {:<34} {:>16} {:<6} n={}",
                    m.name,
                    format_value(m.value),
                    m.unit,
                    m.samples
                );
            }
        }
        let t = &self.tally;
        let _ = writeln!(
            out,
            "ops attempted={} failed={} checks={}",
            t.attempted, t.failed, t.checked
        );
        for e in &t.errors {
            let _ = writeln!(out, "failure: {e}");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of the measurement. A value that could
/// not be measured (a tail with too few samples, a latency of a request
/// that failed) has no JSON spelling; it is written as the largest finite
/// double so that it reads as "worse than anything" and the run is already
/// marked failed or incorrect by its tally.
pub fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.tally.op(Ok::<(), String>(()));
        r.tally.check(Ok(()));
        r.metric("setup_s", 0.5, "s", 3);
        r.metric("round_ms", 12.25, "ms", 20);
        r.extra("compile_s", 0.01225, "s", 20);
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"round_ms\": {\"value\": 12.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut r = Report::default();
        r.tally.op(Ok::<(), String>(()));
        r.tally.check(Err("mismatch".into()));
        assert!(!r.correct());
        assert_eq!(r.tally.failed, 1);
        assert_eq!(format_value(f64::INFINITY), format!("{:?}", f64::MAX));
        assert_eq!(format_value(1.0), "1.0");
    }
}
