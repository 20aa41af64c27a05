//! The `sweep-paper` workload: the Fig. 4 (implicit) and Fig. 5
//! (constrained) line-ups at m ∈ {2, 4, 8}.
//!
//! One *round* regenerates all six panels at [`SETS_PER_BUCKET`] task
//! sets per `UB` bucket. The round is `acceptance_sweep`'s loop put
//! together from the same public pieces (`bucketed_grid`,
//! `TaskSetSpec::generate`, `run_batch`, `accepts_in`) so that every
//! task set and every algorithm call can be timed; its accept counts are
//! checked against `fig4_panel` / `fig5_panel` on every run.

use crate::stats::{worker_threads, Samples};
use crate::trace::Recorder;
use mcsched_analysis::AdmissionStats;
use mcsched_core::WorkspaceRef;
use mcsched_exp::algorithms::{fig4_lineup, FIG4_NAMES};
use mcsched_exp::engine::{run_batch, Accumulator, Batch, Evaluator};
use mcsched_exp::figures::{fig4_panel, fig5_panel, FIGURE_M};
use mcsched_exp::AlgoBox;
use mcsched_gen::{bucketed_grid, DeadlineModel, GridPoint, TaskSetSpec, UbBucket};
use rand::rngs::StdRng;
use rand::RngExt;
use std::time::{Duration, Instant};

/// Task sets per `UB` bucket in one round (the paper uses 1000).
pub const SETS_PER_BUCKET: usize = 250;

/// The seed of the set-up's warm-up corpus.
const WARMUP_SEED: u64 = 0;

/// Lowest bucket swept, as in `SweepConfig::paper`.
const MIN_BUCKET_PERCENT: u32 = 30;

/// The paper's `P_H`, as in `SweepConfig::paper`.
const P_H: f64 = 0.5;

const ALGOS: usize = FIG4_NAMES.len();

/// One panel: figure number, processor count and deadline model.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    pub fig: u8,
    pub m: usize,
    pub deadlines: DeadlineModel,
}

pub fn panels() -> Vec<Panel> {
    let mut out = Vec::new();
    for (fig, deadlines) in [
        (4, DeadlineModel::Implicit),
        (5, DeadlineModel::Constrained),
    ] {
        for &m in &FIGURE_M {
            out.push(Panel { fig, m, deadlines });
        }
    }
    out
}

/// Accept counts of one (panel, bucket) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub fig: u8,
    pub m: usize,
    pub bucket: u32,
    pub total: usize,
    pub accepts: Vec<usize>,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub cells: Vec<Cell>,
    /// Per task set: generation plus the whole line-up.
    pub item: Samples,
    /// Per `accepts_in` call, by verdict.
    pub accept: Samples,
    pub reject: Samples,
    /// Traced rounds only.
    pub layers: Option<RoundLayers>,
}

/// Per-layer totals of a traced round.
#[derive(Debug)]
pub struct RoundLayers {
    pub gen_calls: u64,
    pub gen_ok: u64,
    pub stats: AdmissionStats,
    pub recorder: Recorder,
}

/// The resolved line-up and bucketed grid a round runs on.
pub struct Sweep {
    lineup: Vec<AlgoBox>,
    buckets: Vec<(UbBucket, Vec<GridPoint>)>,
    threads: usize,
    algo_span_names: Vec<&'static str>,
}

impl Sweep {
    pub fn new() -> Sweep {
        let buckets = bucketed_grid()
            .into_iter()
            .filter(|(b, _)| b.0 >= MIN_BUCKET_PERCENT)
            .collect();
        Sweep {
            lineup: fig4_lineup(),
            buckets,
            threads: worker_threads(),
            // Six names, leaked once per process so spans can hold them.
            algo_span_names: FIG4_NAMES
                .iter()
                .map(|n| &*Box::leak(format!("core.partition.{n}").into_boxed_str()))
                .collect(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs all six panels once. With `epoch`, records spans and
    /// admission statistics.
    pub fn round(&self, sets: usize, seed: u64, epoch: Option<Instant>) -> Round {
        self.round_on(self.threads, sets, seed, epoch)
    }

    /// One set per bucket of a fixed corpus, on the calling thread: warms
    /// code, allocator and analysis buffers without spawning workers, so
    /// set-up work does not vary with `--seed` or thread start-up.
    pub fn warm_up(&self) {
        std::hint::black_box(self.round_on(1, 1, WARMUP_SEED, None));
    }

    fn round_on(&self, threads: usize, sets: usize, seed: u64, epoch: Option<Instant>) -> Round {
        let mut round = Round::default();
        let mut layers = epoch.map(|e| RoundLayers {
            gen_calls: 0,
            gen_ok: 0,
            stats: AdmissionStats::default(),
            recorder: Recorder::new(e),
        });
        for panel in panels() {
            for (bucket, points) in &self.buckets {
                let batch = Batch::new(sets, seed)
                    .with_stream(u64::from(bucket.0))
                    .with_threads(threads);
                let batch_id = Recorder::reserve();
                let evaluator = Item {
                    sweep: self,
                    panel,
                    points,
                    trace: layers.as_ref().map(|l| (batch_id, l.recorder.epoch())),
                };
                let start = Instant::now();
                let acc = run_batch(&batch, &evaluator);
                let end = Instant::now();
                round.item.extend(&acc.item);
                round.accept.extend(&acc.accept);
                round.reject.extend(&acc.reject);
                if acc.total > 0 {
                    round.cells.push(Cell {
                        fig: panel.fig,
                        m: panel.m,
                        bucket: bucket.0,
                        total: acc.total,
                        accepts: acc.accepts.to_vec(),
                    });
                }
                if let Some(l) = layers.as_mut() {
                    let rec = &mut l.recorder;
                    rec.finish(batch_id, "exp.engine.run_batch", None, 0, start, end);
                    l.absorb(acc);
                }
            }
        }
        round.layers = layers;
        round
    }
}

impl RoundLayers {
    fn absorb(&mut self, acc: Acc) {
        self.gen_calls += acc.gen_calls;
        // Every absorbed item generated exactly one set.
        self.gen_ok += acc.total as u64;
        self.stats.merge(&acc.stats);
        if let Some(spans) = acc.spans {
            self.recorder.absorb(spans);
        }
    }
}

/// One bucket of one panel, as an engine evaluator.
struct Item<'a> {
    sweep: &'a Sweep,
    panel: Panel,
    points: &'a [GridPoint],
    /// `(engine batch span, epoch)` on traced rounds.
    trace: Option<(u64, Instant)>,
}

struct ItemOut {
    accepts: [bool; ALGOS],
    item: Duration,
    calls: [Duration; ALGOS],
    gen_calls: u64,
    stats: AdmissionStats,
    spans: Option<Recorder>,
}

#[derive(Default)]
struct Acc {
    total: usize,
    accepts: [usize; ALGOS],
    item: Samples,
    accept: Samples,
    reject: Samples,
    gen_calls: u64,
    stats: AdmissionStats,
    spans: Option<Recorder>,
}

impl Accumulator for Acc {
    type Output = ItemOut;

    fn absorb(&mut self, out: ItemOut) {
        self.total += 1;
        self.item.push(out.item);
        for i in 0..ALGOS {
            self.accepts[i] += usize::from(out.accepts[i]);
            if out.accepts[i] {
                self.accept.push(out.calls[i]);
            } else {
                self.reject.push(out.calls[i]);
            }
        }
        self.gen_calls += out.gen_calls;
        self.stats.merge(&out.stats);
        if let Some(spans) = out.spans {
            match self.spans.as_mut() {
                Some(rec) => rec.absorb(spans),
                None => self.spans = Some(spans),
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for i in 0..ALGOS {
            self.accepts[i] += other.accepts[i];
        }
        self.item.extend(&other.item);
        self.accept.extend(&other.accept);
        self.reject.extend(&other.reject);
        self.gen_calls += other.gen_calls;
        self.stats.merge(&other.stats);
        if let Some(spans) = other.spans {
            match self.spans.as_mut() {
                Some(rec) => rec.absorb(spans),
                None => self.spans = Some(spans),
            }
        }
    }
}

impl Evaluator for Item<'_> {
    type Output = ItemOut;
    type Acc = Acc;
    type Ctx = WorkspaceRef;

    fn context(&self) -> WorkspaceRef {
        WorkspaceRef::new()
    }

    fn evaluate(&self, index: usize, rng: &mut StdRng, ws: &mut WorkspaceRef) -> Option<ItemOut> {
        let start = Instant::now();
        let mut spans = self.trace.map(|(_, epoch)| Recorder::new(epoch));
        let item_id = Recorder::reserve();
        let req = index as u64;
        // As `generate_in_bucket` in the sweep: up to eight grid points.
        let mut gen_calls = 0;
        let mut ts = None;
        for _ in 0..8 {
            let point = self.points[rng.random_range(0..self.points.len())];
            let spec = TaskSetSpec::paper_defaults(self.panel.m, point, self.panel.deadlines)
                .with_p_h(P_H);
            gen_calls += 1;
            let g0 = Instant::now();
            let generated = spec.generate(rng);
            if let Some(rec) = spans.as_mut() {
                rec.record("gen.generate", Some(item_id), req, g0, Instant::now());
            }
            if let Ok(set) = generated {
                ts = Some(set);
                break;
            }
        }
        let ts = ts?;
        let mut accepts = [false; ALGOS];
        let mut calls = [Duration::ZERO; ALGOS];
        let mut stats = AdmissionStats::default();
        for (i, algo) in self.sweep.lineup.iter().enumerate() {
            let c0 = Instant::now();
            accepts[i] = match spans.as_mut() {
                None => algo.accepts_in(&ts, self.panel.m, ws),
                Some(rec) => {
                    // What `accepts_in` runs, keeping the statistics.
                    let (result, s) = algo.try_partition_reporting_in(&ts, self.panel.m, ws);
                    rec.record(
                        self.sweep.algo_span_names[i],
                        Some(item_id),
                        req,
                        c0,
                        Instant::now(),
                    );
                    stats.merge(&s);
                    result.is_ok()
                }
            };
            calls[i] = c0.elapsed();
        }
        let end = Instant::now();
        if let (Some(rec), Some((batch_id, _))) = (spans.as_mut(), self.trace) {
            rec.finish(item_id, "exp.engine.item", Some(batch_id), req, start, end);
        }
        Some(ItemOut {
            accepts,
            item: end - start,
            calls,
            gen_calls,
            stats,
            spans,
        })
    }

    fn accumulator(&self) -> Acc {
        Acc::default()
    }
}

/// The reference counts: `fig4_panel` / `fig5_panel` themselves.
pub fn reference_cells(sets: usize, seed: u64, threads: usize) -> Vec<(Cell, Vec<f64>)> {
    let mut out = Vec::new();
    for panel in panels() {
        let result = match panel.fig {
            4 => fig4_panel(panel.m, sets, seed, threads),
            _ => fig5_panel(panel.m, sets, seed, threads),
        };
        let Some(first) = result.curves.first() else {
            continue;
        };
        for (j, &(ub, _)) in first.points.iter().enumerate() {
            let ratios = result.curves.iter().map(|c| c.points[j].1).collect();
            let cell = Cell {
                fig: panel.fig,
                m: panel.m,
                bucket: (ub * 100.0).round() as u32,
                total: 0,
                accepts: Vec::new(),
            };
            out.push((cell, ratios));
        }
    }
    out
}

/// Wrong verdicts implied by `cells` against the reference sweep: for
/// each cell and algorithm, the accept-count difference (a missing or
/// extra cell counts its whole size).
pub fn mismatches_vs_reference(cells: &[Cell], reference: &[(Cell, Vec<f64>)]) -> u64 {
    let mut wrong = 0u64;
    for (rc, ratios) in reference {
        match cells
            .iter()
            .find(|c| c.fig == rc.fig && c.m == rc.m && c.bucket == rc.bucket)
        {
            None => wrong += 1,
            Some(c) => {
                for (count, &ratio) in c.accepts.iter().zip(ratios) {
                    // The sweep reports count / total; recover the count.
                    let expected = (ratio * c.total as f64).round() as i64;
                    let exact = *count as f64 / c.total as f64 == ratio;
                    if !exact {
                        wrong += (expected - *count as i64).unsigned_abs().max(1);
                    }
                }
            }
        }
    }
    wrong + cells.len().saturating_sub(reference.len()) as u64
}

/// The golden file's text for `cells` (one line per cell).
pub fn golden_text(cells: &[Cell], seed: u64) -> String {
    let mut out = format!(
        "# sweep-paper accept counts: seed {seed}, {SETS_PER_BUCKET} sets per bucket\n# fig m bucket total {}\n",
        FIG4_NAMES.join(" ")
    );
    for c in cells {
        let counts: Vec<String> = c.accepts.iter().map(ToString::to_string).collect();
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            c.fig,
            c.m,
            c.bucket,
            c.total,
            counts.join(" ")
        ));
    }
    out
}

/// Wrong verdicts implied by `cells` against a golden file.
pub fn mismatches_vs_golden(cells: &[Cell], golden: &str) -> u64 {
    let expected: Vec<Vec<usize>> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .collect();
    let mut wrong = 0u64;
    for (c, e) in cells.iter().zip(&expected) {
        let mut found = vec![usize::from(c.fig), c.m, c.bucket as usize, c.total];
        found.extend(&c.accepts);
        for (a, b) in found.iter().zip(e) {
            wrong += a.abs_diff(*b) as u64;
        }
        if found.len() != e.len() {
            wrong += 1;
        }
    }
    wrong + cells.len().abs_diff(expected.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_matches_fig4_and_fig5_panels() {
        let sweep = Sweep::new();
        for seed in [3, 11] {
            let round = sweep.round(4, seed, None);
            let reference = reference_cells(4, seed, sweep.threads());
            assert_eq!(round.cells.len(), reference.len());
            assert_eq!(mismatches_vs_reference(&round.cells, &reference), 0);
        }
    }

    #[test]
    fn traced_round_counts_equal_untraced() {
        let sweep = Sweep::new();
        let plain = sweep.round(3, 5, None);
        let traced = sweep.round(3, 5, Some(Instant::now()));
        assert_eq!(plain.cells, traced.cells);
        let layers = traced.layers.expect("traced");
        assert!(layers.gen_calls >= layers.gen_ok);
        assert!(layers.stats.attempts > 0);
    }

    #[test]
    fn golden_text_round_trips() {
        let sweep = Sweep::new();
        let round = sweep.round(2, 9, None);
        let text = golden_text(&round.cells, 9);
        assert_eq!(mismatches_vs_golden(&round.cells, &text), 0);
        let mut off = round.cells.clone();
        off[0].accepts[0] += 1;
        assert_eq!(mismatches_vs_golden(&off, &text), 1);
    }
}
