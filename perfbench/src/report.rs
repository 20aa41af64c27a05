//! Result tables, the metadata row and the final JSON line.

use crate::stats::{commit, cpu_model, nproc, worker_threads, Samples};
use crate::trace::Recorder;
use std::path::Path;

/// End-to-end metrics on the final line of a `--trace 0` run, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "accept_p50_us",
    "reject_p50_us",
    "peak_rss_mb",
];

/// Per-layer metrics on the final line of a `--trace 1` run, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 48] = [
    "gen.calls",
    "gen.yield",
    "gen.busy_ms",
    "exp.engine.wall_ms",
    "exp.engine.parallel_efficiency",
    "core.partition.CU-UDP-ECDF.busy_ms",
    "core.partition.CU-UDP-ECDF.accept_ratio",
    "core.partition.CU-UDP-AMC.busy_ms",
    "core.partition.CU-UDP-AMC.accept_ratio",
    "core.partition.CA-UDP-ECDF.busy_ms",
    "core.partition.CA-UDP-ECDF.accept_ratio",
    "core.partition.CA-UDP-AMC.busy_ms",
    "core.partition.CA-UDP-AMC.accept_ratio",
    "core.partition.ECA-Wu-F-EY.busy_ms",
    "core.partition.ECA-Wu-F-EY.accept_ratio",
    "core.partition.CA-F-F-EY.busy_ms",
    "core.partition.CA-F-F-EY.accept_ratio",
    "analysis.attempts",
    "analysis.admits",
    "analysis.probe_yield",
    "analysis.full",
    "analysis.qpa_cold",
    "analysis.qpa_resumed",
    "analysis.qpa_anchor_hits",
    "analysis.rta_seeded",
    "core.cluster.accept_p50_us",
    "core.cluster.accept_p99_us",
    "core.cluster.reject_p50_us",
    "core.cluster.reject_p99_us",
    "core.cluster.remove_p50_us",
    "core.cluster.remove_p99_us",
    "core.cluster.probe_p50_us",
    "core.cluster.probe_p99_us",
    "core.cluster.processors_tried",
    "exp.protocol.parse_p50_us",
    "exp.protocol.render_p50_us",
    "exp.protocol.bytes_in",
    "exp.protocol.bytes_out",
    "exp.server.request_p50_us",
    "exp.server.request_p99_us",
    "exp.server.self_p50_us",
    "exp.journal.appends",
    "exp.journal.bytes",
    "exp.journal.compactions",
    "exp.journal.append_p50_us",
    "netframe.rtt_p50_us",
    "netframe.overhead_p50_us",
    "trace.overhead_pct",
];

/// The unit of a metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    let tail = |s: &str| name.ends_with(s);
    if tail("ops_per_s") {
        "1/s"
    } else if tail("_us") {
        "us"
    } else if tail("_ms") {
        "ms"
    } else if tail("_s") {
        "s"
    } else if tail("_pct") {
        "%"
    } else if tail("_mb") {
        "MB"
    } else if tail("yield") || tail("ratio") || tail("efficiency") || tail("error_rate") {
        "ratio"
    } else if tail("processors_tried") {
        "tries/admit"
    } else if tail("bytes_in") || tail("bytes_out") {
        "B/req"
    } else if tail("journal.bytes") {
        "B/append"
    } else {
        "count"
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    seconds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    checks: Vec<(String, bool)>,
    samples: Vec<(String, usize)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            digest: String::new(),
            e2e: Vec::new(),
            layers: Vec::new(),
            checks: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// `<prefix>_p50_us` and, with enough samples, `<prefix>_p99_us`.
    pub fn e2e_quantiles(&mut self, prefix: &str, s: &Samples) {
        self.e2e(&format!("{prefix}_p50_us"), s.p50_us(), "us", s.len());
        // Under 1000 samples the p99 has fewer than ten beyond it; report
        // the estimate anyway so the row is complete, and say so.
        let p99 = s.p99_us().unwrap_or_else(|| s.quantile_us(0.99));
        self.e2e(&format!("{prefix}_p99_us"), p99, "us", s.len());
        if s.p99_us().is_none() {
            self.note(format!(
                "{prefix}_p99_us rests on {} samples (< 1000)",
                s.len()
            ));
        }
    }

    /// Printed end-to-end metrics that not every workload produces.
    pub fn info_quantiles(&mut self, prefix: &str, s: &Samples) {
        if s.len() > 0 {
            self.e2e_quantiles(prefix, s);
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer_quantiles(&mut self, prefix: &str, s: &Samples) {
        let p99 = s.p99_us().unwrap_or_else(|| s.quantile_us(0.99));
        self.layer(&format!("{prefix}_p50_us"), s.p50_us(), "us", s.len());
        self.layer(&format!("{prefix}_p99_us"), p99, "us", s.len());
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_owned(), ok));
    }

    pub fn sample(&mut self, name: &str, n: usize) {
        self.samples.push((name.to_owned(), n));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Writes the traced run's spans to
    /// `.bench_out/trace-<workload>-<seed>.tsv`.
    pub fn write_spans(&mut self, rec: &Recorder) {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.tsv", self.workload, self.seed));
        match std::fs::create_dir_all(dir).and_then(|()| rec.write_tsv(&path)) {
            Ok(()) => self.note(format!(
                "{} spans written to {}",
                rec.spans().len(),
                path.display()
            )),
            Err(e) => self.note(format!("spans not written: {e}")),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn find<'a>(list: &'a [Metric], name: &str) -> Option<&'a Metric> {
        list.iter().find(|m| m.name == name)
    }

    /// Prints the tables, the metadata row and, last, the result line.
    pub fn print(&self, traced: bool) {
        println!(
            "== {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(traced)
        );
        println!(
            "{:<44} {:>16} {:<12} {:>10}",
            "end-to-end metric", "value", "unit", "samples"
        );
        for m in &self.e2e {
            println!(
                "{:<44} {:>16.4} {:<12} {:>10}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<44} {:>16.6} {:<12} {:>10}",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted
        );
        if traced {
            println!(
                "{:<44} {:>16} {:<12} {:>10}",
                "per-layer metric", "value", "unit", "samples"
            );
            for m in &self.layers {
                println!(
                    "{:<44} {:>16.4} {:<12} {:>10}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for (name, ok) in &self.checks {
            println!("check: {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        println!("{}", self.metadata_row());
        println!("{}", self.result_line(traced));
    }

    /// One JSON object of run metadata, comparable across commits.
    fn metadata_row(&self) -> String {
        let mut samples: Vec<String> = self
            .e2e
            .iter()
            .chain(&self.layers)
            .map(|m| format!("{}: {}", json_str(&m.name), m.samples))
            .collect();
        samples.extend(
            self.samples
                .iter()
                .map(|(k, n)| format!("{}: {n}", json_str(k))),
        );
        format!(
            "{{\"row\": {{\"commit\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
\"nproc\": {}, \"threads\": {}, \"cpu\": {}, \"attempted\": {}, \"failed\": {}, \
\"error_rate\": {}, \"digest\": {}, \"samples\": {{{}}}}}}}",
            json_str(&commit()),
            json_str(&self.workload),
            self.seed,
            self.seconds,
            nproc(),
            worker_threads(),
            json_str(&cpu_model()),
            self.attempted,
            self.failed,
            json_num(self.error_rate()),
            json_str(&self.digest),
            samples.join(", ")
        )
    }

    /// The result line: the `BENCHMARK.json` metrics of this mode (a
    /// metric the workload does not produce reads 0).
    pub fn result_line(&self, traced: bool) -> String {
        let (names, list): (&[&str], &[Metric]) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|&name| {
                let (value, unit) =
                    Self::find(list, name).map_or((0.0, unit_of(name)), |m| (m.value, m.unit));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            let unit = unit_of(name);
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} should have unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut r = Report::new("w", 1, 1);
        r.e2e("setup_s", 0.5, "s", 5);
        r.attempted = 10;
        let line = r.result_line(false);
        for name in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(r.result_line(true).contains("\"trace.overhead_pct\""));
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
