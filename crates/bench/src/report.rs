//! The one report format shared by the benches, `fuzz_sweep` and
//! `bench_check`: an ordered list of labelbench-style lines,
//!
//! ```text
//! info bench=scale_sweep
//! metric sweep.0.seq_query_ns.p99 2208
//! info metric_note=Figure 26-style scale sweep
//! ```
//!
//! `info <key>=<text>` carries provenance (names, notes, booleans, comma-joined
//! lists); `metric <name> <value>` carries one finite number in Rust's `f64`
//! `Display` form. Units live in the names (`cold_build_ms`, `snapshot_bytes`)
//! and nesting in dotted segments (`variants.Default.4.wall_qps`, an array
//! index being one segment). The first line is always `info bench=<name>`,
//! and [`Report::write`] files the report as `BENCH_<name>.txt` at the
//! workspace root.

use crate::LatencyHistogram;
use std::fmt;
use std::path::PathBuf;

/// One bench report: `info` and `metric` lines in the order they were added.
#[derive(Debug, PartialEq)]
pub struct Report {
    lines: Vec<(String, Value)>,
}

#[derive(Debug, PartialEq)]
enum Value {
    Info(String),
    Metric(f64),
}

/// A key or metric name: non-empty, no whitespace, no `=`.
fn is_name(s: &str) -> bool {
    !s.is_empty() && !s.contains(|c: char| c.is_whitespace() || c == '=')
}

impl Report {
    /// An empty report for `bench`: just its `info bench=<bench>` line.
    pub fn new(bench: &str) -> Self {
        let mut r = Self { lines: Vec::new() };
        r.info("bench", bench);
        r
    }

    /// The bench this report belongs to.
    pub fn bench(&self) -> &str {
        match &self.lines[0].1 {
            Value::Info(name) => name,
            Value::Metric(_) => unreachable!("a report starts with info bench="),
        }
    }

    /// Appends `info <key>=<value>`. Panics on a key that is not a name or a
    /// value holding a line break: either would not read back.
    pub fn info(&mut self, key: &str, value: impl fmt::Display) {
        let value = value.to_string();
        assert!(is_name(key) && !value.contains('\n'), "bad info line {key}={value:?}");
        self.lines.push((key.into(), Value::Info(value)));
    }

    /// Appends `metric <name> <value>`. Panics on a name that is not one or
    /// a value that is not finite, as labelbench's `Report::metric` does.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.lines.push((name.into(), Value::Metric(value)));
    }

    /// Appends the histogram `h` as `<name>.{mean,p50,p95,p99,p999,max,count}`.
    pub fn hist(&mut self, name: &str, h: &LatencyHistogram) {
        self.metric(&format!("{name}.mean"), h.mean());
        for (q, p) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)] {
            self.metric(&format!("{name}.{q}"), h.percentile(p) as f64);
        }
        self.metric(&format!("{name}.max"), h.max() as f64);
        self.metric(&format!("{name}.count"), h.count() as f64);
    }

    /// The text of `info <key>=`, if present.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.lines.iter().find_map(|(k, v)| match v {
            Value::Info(text) if k == key => Some(text.as_str()),
            _ => None,
        })
    }

    /// The value of `metric <name>`, or the error `missing metric <name>`.
    pub fn num(&self, name: &str) -> Result<f64, String> {
        self.lines
            .iter()
            .find_map(|(k, v)| match v {
                Value::Metric(x) if k == name => Some(*x),
                _ => None,
            })
            .ok_or_else(|| format!("missing metric {name}"))
    }

    /// The name segments directly under `prefix`, in order of first
    /// appearance: `children("sweep")` lists a sweep's row indices,
    /// `children("variants")` its variant names.
    pub fn children(&self, prefix: &str) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (name, _) in &self.lines {
            if let Some(rest) = name.strip_prefix(prefix).and_then(|r| r.strip_prefix('.')) {
                let segment = rest.split_once('.').map_or(rest, |(s, _)| s);
                if !out.contains(&segment) {
                    out.push(segment);
                }
            }
        }
        out
    }

    /// Reads a report back: every line is an `info` or `metric` line, the
    /// first is `info bench=<name>`, and no name repeats.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut lines: Vec<(String, Value)> = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("line {}: not an info or metric line: {line:?}", n + 1);
            let (name, value) = if let Some(rest) = line.strip_prefix("info ") {
                let (key, value) = rest.split_once('=').ok_or_else(bad)?;
                (key, Value::Info(value.into()))
            } else if let Some(rest) = line.strip_prefix("metric ") {
                let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                let value: f64 = value.parse().map_err(|_| bad())?;
                if !value.is_finite() {
                    return Err(bad());
                }
                (name, Value::Metric(value))
            } else {
                return Err(bad());
            };
            if !is_name(name) {
                return Err(bad());
            }
            if lines.iter().any(|(k, _)| k == name) {
                return Err(format!("line {}: {name} repeats", n + 1));
            }
            lines.push((name.into(), value));
        }
        match lines.first() {
            Some((key, Value::Info(bench))) if key == "bench" && !bench.is_empty() => {
                Ok(Report { lines })
            }
            _ => Err("a report starts with info bench=<name>".into()),
        }
    }

    /// Writes the report to `BENCH_<bench>.txt` at the workspace root and
    /// says where. Panics with the path if the file cannot be written.
    pub fn write(&self) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../BENCH_{}.txt", self.bench()));
        if let Err(e) = std::fs::write(&path, self.to_string()) {
            panic!("could not write {}: {e}", path.display());
        }
        println!("wrote {}", path.display());
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.lines {
            match value {
                Value::Info(text) => writeln!(f, "info {name}={text}")?,
                Value::Metric(x) => writeln!(f, "metric {name} {x}")?,
            }
        }
        Ok(())
    }
}

/// Cores this process may run on, for reports whose figures depend on them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_its_text() {
        let mut r = Report::new("scale_sweep");
        r.info("metric_note", "warm ≤ cold — gated at ≥ 5·10^5 items, a = b");
        r.metric("sweep.0.items", 10058.0);
        r.metric("sweep.0.cold_build_ms", 6.5);
        r.metric("big", 1e21);
        r.metric("tiny", 1.25e-7);
        r.metric("negative", -0.75);
        r.info("profile.top", "");
        let mut h = LatencyHistogram::new();
        h.record(300);
        h.record(90_000);
        r.hist("sweep.0.seq_query_ns", &h);
        let text = r.to_string();
        assert!(text.starts_with("info bench=scale_sweep\n"), "{text}");
        assert!(text.contains("\nmetric big 1000000000000000000000\n"), "{text}");
        let hist = ["mean", "p50", "p95", "p99", "p999", "max", "count"];
        assert_eq!(r.children("sweep.0.seq_query_ns"), hist);
        assert!(text.contains("\nmetric sweep.0.seq_query_ns.count 2\n"), "{text}");
        let back = Report::parse(&text).expect("writer output parses");
        assert_eq!(back, r);
        assert_eq!(back.to_string(), text);
        assert_eq!(back.text("metric_note"), r.text("metric_note"));
        assert_eq!(back.num("sweep.0.seq_query_ns.max"), Ok(90_000.0));
        assert_eq!(back.num("sweep.0.nope"), Err("missing metric sweep.0.nope".into()));
    }

    #[test]
    fn children_lists_direct_segments_in_order() {
        let mut r = Report::new("parallel_throughput");
        for v in ["SpaceEfficient", "Default"] {
            for t in ["1", "4"] {
                r.metric(&format!("variants.{v}.{t}.wall_qps"), 1.0);
            }
            r.metric(&format!("variants.{v}.aggregate_speedup_4v1"), 2.0);
        }
        r.metric("variants_compiled", 3.0);
        assert_eq!(r.children("variants"), ["SpaceEfficient", "Default"]);
        assert_eq!(r.children("variants.Default"), ["1", "4", "aggregate_speedup_4v1"]);
        assert!(r.children("variants.Default.1.wall_qps").is_empty());
        assert!(r.children("sweep").is_empty());
    }

    #[test]
    fn parse_rejects_what_the_writer_never_writes() {
        for bad in [
            "",
            "metric items 3\n",
            "info bench=\n",
            "info bench=x\nmetric items\n",
            "info bench=x\nmetric items 3 ms\n",
            "info bench=x\nmetric items NaN\n",
            "info bench=x\nmetric items inf\n",
            "info bench=x\ninfo note\n",
            "info bench=x\n{\"items\": 3}\n",
            "info bench=x\nmetric items 3\nmetric items 4\n",
        ] {
            assert!(Report::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    #[should_panic(expected = "is not a number")]
    fn metric_refuses_a_non_finite_value() {
        Report::new("x").metric("ratio", f64::NAN);
    }
}
