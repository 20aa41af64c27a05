//! Analysis-level throughput measurement: the `BENCH_analysis.json`
//! artifact CI uploads to track the *uniprocessor test* hot path (the
//! layer below `BENCH_partition.json`'s whole-partitioning trajectory).
//!
//! For each of the five tests and each processor count, a seeded corpus
//! is judged by two passes:
//!
//! * **reference** — the retained seed implementation: per-call
//!   allocating vectors, for AMC-max the materialise + sort + dedup
//!   candidate enumeration with its rtb cap over `&[Task]`
//!   ([`mcsched_analysis::amc::reference`]), and for EY / ECDF the flat
//!   per-call QPA stack ([`mcsched_analysis::vdtune::reference`] over
//!   [`mcsched_analysis::dbf::reference`]);
//! * **workspace** — the hot path:
//!   [`SchedulabilityTest::is_schedulable_in`] over one reused
//!   [`AnalysisWorkspace`]: the SoA lane kernels (for AMC-max the
//!   streaming candidate walk over the lanes, with reciprocal division
//!   and no rtb re-run), and the incremental demand kernel
//!   (warm-resumed QPA fixpoints, memoised violation anchors) behind the
//!   EY / ECDF tuners.
//!
//! Each cell times [`REPS`] interleaved reference/workspace repetitions
//! and reports the median ratio with its interquartile range, so one
//! noisy pass cannot fail a gate on its own. Every verdict pair is
//! **asserted equal** before it counts — a divergence panics, which is
//! exactly what the `perf-analysis` CI job promotes into a failure.

use mcsched_analysis::{
    amc::reference, vdtune::reference as vd_reference, AmcMax, AmcRtb, AnalysisWorkspace, Ecdf,
    EdfVd, Ey, SchedulabilityTest,
};
use mcsched_gen::{utilization_grid, DeadlineModel, TaskSetSpec};
use mcsched_model::TaskSet;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// A deterministic corpus of **uniprocessor-load** task sets with the
/// task-count range of an `m`-processor workload (`n ∈ [m+1, 5m]`).
///
/// This is the shape the uniprocessor tests actually see inside the
/// partitioning inner loop: one processor's share of the load, but drawn
/// from systems whose task counts grow with `m`. (The partition-level
/// corpus of [`crate::perf::seeded_corpus`] keeps the full `m`-processor
/// utilization and would trip every test's O(1) structural overload
/// rejection, measuring nothing but the fast path.) `UB ∈ [0.5, 0.9]`
/// keeps verdicts mixed and fixpoints non-trivial.
pub fn uniprocessor_corpus(m: usize, count: usize, seed: u64) -> Vec<TaskSet> {
    let points: Vec<_> = utilization_grid()
        .into_iter()
        .filter(|p| (0.5..=0.9).contains(&p.ub()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 40 {
        guard += 1;
        let point = points[rng.random_range(0..points.len())];
        let mut spec = TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit);
        spec.n_min = m + 1;
        spec.n_max = 5 * m;
        if let Ok(ts) = spec.generate(&mut rng) {
            out.push(ts);
        }
    }
    out
}

/// Interleaved reference/workspace repetitions timed per `(test, m)`
/// cell.
pub const REPS: usize = 5;

/// One `(test, m)` cell of the throughput report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisPerfRow {
    /// Uniprocessor test name.
    pub test: String,
    /// Processor count the corpus was generated for (larger `m` ⇒ more
    /// tasks per set: the paper draws `n ∈ [m+1, 5m]`).
    pub m: usize,
    /// Task sets judged.
    pub sets: usize,
    /// Total tasks across the corpus.
    pub tasks: usize,
    /// Sets the test accepted (identical on both paths — asserted).
    pub accepted: usize,
    /// Median wall-clock of the reference (seed) passes, in
    /// milliseconds.
    pub reference_ms: f64,
    /// Median wall-clock of the workspace (hot) passes, in milliseconds.
    pub workspace_ms: f64,
    /// Interleaved repetitions timed, each one reference pass followed
    /// by one workspace pass.
    pub reps: usize,
    /// Median over the repetitions of `reference / workspace` — the
    /// figure the gates read.
    pub speedup: f64,
    /// First quartile of the per-repetition speedups.
    pub speedup_q1: f64,
    /// Third quartile of the per-repetition speedups.
    pub speedup_q3: f64,
}

/// The `q`-quantile of `values` (linear interpolation between the
/// order statistics; 0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let x = q * (v.len() - 1) as f64;
    let lo = x.floor() as usize;
    let hi = x.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// The full analysis-throughput report (serialized to
/// `BENCH_analysis.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisPerfReport {
    /// Corpus seed.
    pub seed: u64,
    /// Sets per `(test, m)` cell.
    pub sets_per_cell: usize,
    /// One row per `(test, m)`.
    pub rows: Vec<AnalysisPerfRow>,
}

/// The reference (seed) verdict for one test — the allocating
/// implementations the workspace layer replaced, retained verbatim in
/// `amc::reference` / `vdtune::reference` for exactly this comparison.
/// (EDF-VD's closed form never allocated; its row doubles as a noise
/// baseline.)
fn reference_verdict(test: &TestCase, ts: &TaskSet) -> bool {
    match test {
        TestCase::EdfVd(t) => t.is_schedulable(ts),
        TestCase::Ey(_) => vd_reference::ey_is_schedulable(ts),
        TestCase::Ecdf(_) => vd_reference::ecdf_is_schedulable(ts),
        TestCase::AmcRtb(_) => reference::amc_rtb_is_schedulable(ts),
        TestCase::AmcMax(_) => reference::amc_max_is_schedulable(ts),
    }
}

/// The five measured tests (EDF-VD has no allocating/seed split — its
/// closed form never allocated — so its row doubles as a baseline).
enum TestCase {
    /// Closed-form utilization test.
    EdfVd(EdfVd),
    /// Greedy virtual-deadline tuner.
    Ey(Ey),
    /// Multi-start virtual-deadline tuner.
    Ecdf(Ecdf),
    /// Response-time bound RTA.
    AmcRtb(AmcRtb),
    /// Switch-instant enumerating RTA.
    AmcMax(AmcMax),
}

impl TestCase {
    fn all() -> Vec<TestCase> {
        vec![
            TestCase::EdfVd(EdfVd::new()),
            TestCase::Ey(Ey::new()),
            TestCase::Ecdf(Ecdf::new()),
            TestCase::AmcRtb(AmcRtb::new()),
            TestCase::AmcMax(AmcMax::new()),
        ]
    }

    fn as_test(&self) -> &dyn SchedulabilityTest {
        match self {
            TestCase::EdfVd(t) => t,
            TestCase::Ey(t) => t,
            TestCase::Ecdf(t) => t,
            TestCase::AmcRtb(t) => t,
            TestCase::AmcMax(t) => t,
        }
    }
}

/// Measures every test over seeded corpora for each `m` with [`REPS`]
/// interleaved repetitions per cell, asserting the workspace verdicts
/// bit-identical to the reference pass on every repetition.
///
/// # Panics
///
/// Panics if any workspace verdict diverges from its reference verdict —
/// the equivalence assertion the `perf-analysis` CI job relies on.
pub fn analysis_throughput(m_values: &[usize], sets: usize, seed: u64) -> AnalysisPerfReport {
    let mut rows = Vec::new();
    for &m in m_values {
        let corpus = uniprocessor_corpus(m, sets, seed);
        let tasks: usize = corpus.iter().map(TaskSet::len).sum();
        for case in TestCase::all() {
            let test = case.as_test();
            // One reused workspace, as a sweep worker runs.
            let mut ws = AnalysisWorkspace::new();
            let mut reference_ms = [0.0; REPS];
            let mut workspace_ms = [0.0; REPS];
            let mut speedups = [0.0; REPS];
            let mut accepted = 0;
            for rep in 0..REPS {
                // Reference pass (allocating seed implementations).
                let start = Instant::now();
                let ref_verdicts: Vec<bool> = corpus
                    .iter()
                    .map(|ts| reference_verdict(&case, ts))
                    .collect();
                reference_ms[rep] = start.elapsed().as_secs_f64() * 1e3;

                let start = Instant::now();
                let ws_verdicts: Vec<bool> = corpus
                    .iter()
                    .map(|ts| test.is_schedulable_in(ts, &mut ws))
                    .collect();
                workspace_ms[rep] = start.elapsed().as_secs_f64() * 1e3;

                assert_eq!(
                    ref_verdicts,
                    ws_verdicts,
                    "{} workspace verdicts diverged from the seed reference (m={m})",
                    test.name()
                );
                accepted = ws_verdicts.iter().filter(|&&ok| ok).count();
                speedups[rep] = if workspace_ms[rep] > 0.0 {
                    reference_ms[rep] / workspace_ms[rep]
                } else {
                    f64::INFINITY
                };
            }
            rows.push(AnalysisPerfRow {
                test: test.name().to_owned(),
                m,
                sets: corpus.len(),
                tasks,
                accepted,
                reference_ms: quantile(&reference_ms, 0.5),
                workspace_ms: quantile(&workspace_ms, 0.5),
                reps: REPS,
                speedup: quantile(&speedups, 0.5),
                speedup_q1: quantile(&speedups, 0.25),
                speedup_q3: quantile(&speedups, 0.75),
            });
        }
    }
    AnalysisPerfReport {
        seed,
        sets_per_cell: sets,
        rows,
    }
}

/// Parses a `TEST:MIN` speedup gate (e.g. `AMC-rtb:1.5`).
pub fn parse_gate(spec: &str) -> Result<(String, f64), String> {
    let (test, min) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --gate `{spec}` (expected TEST:MIN, e.g. AMC-rtb:1.5)"))?;
    let min: f64 = min
        .parse()
        .map_err(|e| format!("bad --gate `{spec}`: {e}"))?;
    if test.is_empty() || !min.is_finite() || min <= 0.0 {
        return Err(format!(
            "bad --gate `{spec}` (expected TEST:MIN with MIN > 0)"
        ));
    }
    Ok((test.to_string(), min))
}

/// Checks speedup gates against every matching `(test, m)` row's median
/// speedup. Returns one message per violation (or unknown test name);
/// empty means pass.
pub fn check_gates(report: &AnalysisPerfReport, gates: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (test, min) in gates {
        let mut seen = false;
        for r in report.rows.iter().filter(|r| &r.test == test) {
            seen = true;
            if r.speedup < *min {
                failures.push(format!(
                    "{} at m={}: median speedup {:.2}x (IQR {:.2}–{:.2}x over {} reps) \
                     below the {min:.2}x gate (reference {:.1} ms vs workspace {:.1} ms)",
                    r.test,
                    r.m,
                    r.speedup,
                    r.speedup_q1,
                    r.speedup_q3,
                    r.reps,
                    r.reference_ms,
                    r.workspace_ms
                ));
            }
        }
        if !seen {
            failures.push(format!("gate names unknown test `{test}`"));
        }
    }
    failures
}

/// Writes the report as pretty-printed JSON.
pub fn write_analysis_json(report: &AnalysisPerfReport, path: &Path) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// Renders the report as a markdown table.
pub fn render_analysis_perf(report: &AnalysisPerfReport) -> String {
    let mut out = String::from(
        "| test | m | sets | tasks | accepted | reference ms | workspace ms | speedup | IQR |\n\
         |----|----|----|----|----|----|----|----|----|\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.2}x | {:.2}–{:.2}x |\n",
            r.test,
            r.m,
            r.sets,
            r.tasks,
            r.accepted,
            r.reference_ms,
            r.workspace_ms,
            r.speedup,
            r.speedup_q1,
            r.speedup_q3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_equivalence() {
        // Small corpus; the equivalence assertions inside must hold.
        let report = analysis_throughput(&[2], 6, 11);
        assert_eq!(report.rows.len(), 5);
        for r in &report.rows {
            assert_eq!(r.sets, 6);
            assert!(r.accepted <= r.sets);
            assert!(r.tasks >= r.sets);
            assert_eq!(r.reps, REPS);
            // The gated figure is a median inside its quartiles.
            assert!(r.speedup > 0.0);
            assert!(r.speedup_q1 <= r.speedup && r.speedup <= r.speedup_q3);
        }
        let table = render_analysis_perf(&report);
        assert!(table.contains("speedup"));
        assert!(table.contains("IQR"));
        // Quartiles interpolate between order statistics.
        let five = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&five, 0.25), 2.0);
        assert_eq!(quantile(&five, 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(table.contains("AMC-max"));
    }

    #[test]
    fn gates_parse_and_check() {
        assert_eq!(
            parse_gate("AMC-rtb:1.5").unwrap(),
            ("AMC-rtb".to_string(), 1.5)
        );
        assert!(parse_gate("AMC-rtb").is_err());
        assert!(parse_gate("AMC-rtb:zero").is_err());
        assert!(parse_gate(":1.5").is_err());
        assert!(parse_gate("AMC-rtb:-1").is_err());

        let row = |test: &str, m: usize, speedup: f64| AnalysisPerfRow {
            test: test.to_string(),
            m,
            sets: 10,
            tasks: 40,
            accepted: 5,
            reference_ms: speedup,
            workspace_ms: 1.0,
            reps: REPS,
            speedup,
            speedup_q1: speedup,
            speedup_q3: speedup,
        };
        let report = AnalysisPerfReport {
            seed: 1,
            sets_per_cell: 10,
            rows: vec![
                row("AMC-rtb", 2, 1.7),
                row("AMC-rtb", 4, 1.2),
                row("AMC-max", 2, 2.0),
            ],
        };
        // A gate applies to every m-row of its test.
        let failures = check_gates(&report, &[("AMC-rtb".to_string(), 1.5)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("m=4"), "{failures:?}");
        assert!(check_gates(&report, &[("AMC-rtb".to_string(), 1.1)]).is_empty());
        // Unknown test names fail loudly instead of silently passing.
        let failures = check_gates(&report, &[("EY".to_string(), 1.0)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("unknown test"), "{failures:?}");
    }

    #[test]
    fn json_written_to_disk() {
        let report = analysis_throughput(&[2], 2, 5);
        let dir = std::env::temp_dir().join("mcsched_analysis_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_analysis.json");
        write_analysis_json(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("workspace_ms"));
        assert!(text.contains("speedup_q1"));
        assert!(text.contains("\"rows\""));
        std::fs::remove_file(&path).ok();
    }
}
