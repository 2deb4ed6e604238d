//! What a run prints: one `name unit value` line per metric, then the
//! result object as the last line of standard output.

use cvm_sim::JsonValue;

use crate::metrics::MetricDef;

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`, in the registry's order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Pairs each definition with its measured value. A metric that was
    /// not measured, or came out not finite, is reported as 0 and named
    /// in the returned list.
    pub fn fill(
        defs: &[MetricDef],
        values: &[(&str, f64)],
    ) -> (Vec<(&'static str, &'static str, f64)>, Vec<&'static str>) {
        let mut missing = Vec::new();
        let metrics = defs
            .iter()
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map(|(_, v)| *v)
                    .filter(|v| v.is_finite());
                if v.is_none() {
                    missing.push(d.name);
                }
                (d.name, d.unit, v.unwrap_or(0.0))
            })
            .collect();
        (metrics, missing)
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn json_line(&self) -> String {
        let mut metrics = JsonValue::object();
        for (name, unit, value) in &self.metrics {
            let mut m = JsonValue::object();
            m.set("value", *value);
            m.set("unit", *unit);
            metrics.set(name, m);
        }
        let mut doc = JsonValue::object();
        doc.set("correct", self.correct);
        doc.set("attempted", self.attempted);
        doc.set("failed", self.failed);
        doc.set("metrics", metrics);
        let mut line = String::new();
        doc.write(&mut line);
        line
    }

    pub fn print(&self) {
        for (name, unit, value) in &self.metrics {
            println!("{name} {unit} {value}");
        }
        println!("{}", self.json_line());
    }
}

/// Reads a result object back (the `--repeat` driver parses its
/// children with this).
pub fn parse_json_line(line: &str) -> Option<Report> {
    let doc = JsonValue::parse(line).ok()?;
    let JsonValue::Object(fields) = doc.get("metrics")? else {
        return None;
    };
    Some(Report {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics: fields
            .iter()
            .filter_map(|(name, m)| {
                let def = crate::metrics::END_TO_END
                    .iter()
                    .chain(crate::metrics::PER_LAYER)
                    .find(|d| d.name == name)?;
                Some((def.name, def.unit, m.get("value")?.as_f64()?))
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let values = [
            ("setup_s", 4.25),
            ("host_wall_s", 4.125),
            ("host_cpu_s", 4.0625),
            ("host_work_per_s", 1234.5),
            ("host_peak_rss_mib", 35.75),
        ];
        let (metrics, missing) = Report::fill(END_TO_END, &values);
        assert!(missing.is_empty());
        let r = Report {
            correct: true,
            attempted: 42,
            failed: 0,
            metrics,
        };
        let line = r.json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with(r#"{"correct":true,"attempted":42,"failed":0,"metrics":{"setup_s":{"value":4.25,"unit":"s"}"#), "{line}");
        assert_eq!(parse_json_line(&line), Some(r));
    }

    #[test]
    fn unmeasured_and_non_finite_values_are_named() {
        let (metrics, missing) =
            Report::fill(END_TO_END, &[("setup_s", f64::NAN), ("host_wall_s", 1.0)]);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(missing.contains(&"setup_s") && missing.contains(&"host_cpu_s"));
        assert!(!missing.contains(&"host_wall_s"));
    }
}
