//! The workspace-backed analysis hot path must be **exactly** equivalent
//! to the retained seed (allocating) implementations:
//!
//! * the streaming AMC-max candidate walk visits exactly the
//!   sorted-deduplicated candidate set the seed path materialised, and
//!   returns identical response bounds;
//! * every test's `is_schedulable_in` (one reused workspace) agrees with
//!   `is_schedulable` on every set;
//! * both hold across unconstrained proptest sets *and* a deterministic
//!   generator-shaped corpus;
//! * Audsley's priority assignment for AMC-rtb accepts exactly the sets
//!   some priority order makes rtb-feasible (a brute-force oracle).

use mcsched::analysis::amc::{amc_rtb_bounds_batched, reference};
use mcsched::analysis::vdtune::reference as vd_reference;
use mcsched::analysis::{
    AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, LoRta, SchedulabilityTest, WorkspaceRef,
};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Criticality, Task, TaskSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An arbitrary valid task: period 2..=60, budgets inside it, optional
/// criticality/constrained deadline.
fn arb_task(id: u32) -> impl Strategy<Value = Task> {
    (2u64..=60, any::<bool>()).prop_flat_map(move |(period, is_hi)| {
        (1u64..=period, Just(period), Just(is_hi)).prop_flat_map(move |(c_lo, period, is_hi)| {
            if is_hi {
                (c_lo..=period, Just(period), Just(c_lo))
                    .prop_flat_map(move |(c_hi, period, c_lo)| {
                        (c_hi..=period).prop_map(move |d| {
                            Task::hi_constrained(id, period, c_lo, c_hi, d).expect("valid")
                        })
                    })
                    .boxed()
            } else {
                (c_lo..=period)
                    .prop_map(move |d| Task::lo_constrained(id, period, c_lo, d).expect("valid"))
                    .boxed()
            }
        })
    })
}

/// An arbitrary task set of 1..=10 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=10).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(arb_task).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

/// Asserts the SoA kernels reproduce the seed responses **bit for
/// bit**: the low-mode vector, the AMC-rtb verdict, and (on an accepting
/// verdict) every HC task's high-mode bound.
fn assert_batched_bounds_equivalent(ts: &TaskSet) {
    let lo = LoRta::compute(ts);
    assert_eq!(
        lo,
        reference::lo_responses(ts),
        "SoA low-mode responses diverged on {ts}"
    );
    let rtb = amc_rtb_bounds_batched(ts);
    assert_eq!(
        rtb.is_some(),
        lo.is_some(),
        "SoA rtb ran without a low-mode pass on {ts}"
    );
    let Some((verdict, bounds)) = rtb else {
        return;
    };
    assert_eq!(
        verdict,
        reference::amc_rtb_is_schedulable(ts),
        "SoA AMC-rtb verdict diverged on {ts}"
    );
    if !verdict {
        // On a reject the kernel stops at the first infeasible task;
        // bounds past it are undefined by contract.
        return;
    }
    for (i, t) in ts.as_slice().iter().enumerate() {
        let want = match t.criticality() {
            Criticality::High => reference::amc_rtb_response(ts, i).expect("low mode passed"),
            Criticality::Low => None,
        };
        assert_eq!(bounds[i], want, "rtb bound diverged for τ{i} of {ts}");
    }
}

/// Asserts the streaming walk ≡ the seed candidate enumeration for every
/// task of the set, and the workspace verdicts ≡ the plain verdicts for
/// all five tests. Returns the number of per-task comparisons.
fn assert_workspace_equivalent(ts: &TaskSet, ws: &mut AnalysisWorkspace) -> usize {
    let mut compared = 0;
    for i in 0..ts.len() {
        assert_eq!(
            reference::amc_max_candidates_streamed(ts, i),
            reference::amc_max_candidates(ts, i),
            "candidate sets diverged for τ{i} of {ts}"
        );
        assert_eq!(
            reference::amc_max_bound_streamed(ts, i),
            reference::amc_max_bound(ts, i),
            "response bounds diverged for τ{i} of {ts}"
        );
        compared += 1;
    }
    let tests: Vec<Box<dyn SchedulabilityTest>> = vec![
        Box::new(EdfVd::new()),
        Box::new(Ey::new()),
        Box::new(Ecdf::new()),
        Box::new(AmcRtb::new()),
        Box::new(AmcRtb::with_audsley()),
        Box::new(AmcMax::new()),
    ];
    for test in &tests {
        assert_eq!(
            test.is_schedulable_in(ts, ws),
            test.is_schedulable(ts),
            "{} workspace verdict diverged on {ts}",
            test.name()
        );
    }
    assert_eq!(
        AmcMax::new().is_schedulable(ts),
        reference::amc_max_is_schedulable(ts),
        "AMC-max verdict diverged from the seed implementation on {ts}"
    );
    assert_eq!(
        AmcRtb::new().is_schedulable(ts),
        reference::amc_rtb_is_schedulable(ts),
        "AMC-rtb verdict diverged from the seed implementation on {ts}"
    );
    assert_eq!(
        Ey::new().is_schedulable(ts),
        vd_reference::ey_is_schedulable(ts),
        "EY verdict diverged from the seed tuner on {ts}"
    );
    assert_eq!(
        Ecdf::new().is_schedulable(ts),
        vd_reference::ecdf_is_schedulable(ts),
        "ECDF verdict diverged from the seed tuner on {ts}"
    );
    assert_batched_bounds_equivalent(ts);
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_walk_is_bit_identical(ts in arb_taskset()) {
        let mut ws = AnalysisWorkspace::new();
        assert_workspace_equivalent(&ts, &mut ws);
    }

    /// Mutation sessions over the delta-maintained SoA view: interleaved
    /// admits (committing on success) and removals, with every single
    /// admission verdict compared against the one-shot test on the
    /// materialised union. Removals force the lane view through its
    /// `insert`/`remove` shifts and the fast-kernel certificate through
    /// its add/subtract reversal, so any drift between the mirror and the
    /// committed set shows up as a verdict divergence.
    #[test]
    fn admission_mutation_sessions_stay_equivalent(
        ts in arb_taskset(),
        ops in proptest::collection::vec(any::<u32>(), 1..=24),
    ) {
        let tests: Vec<Box<dyn SchedulabilityTest>> =
            vec![Box::new(AmcRtb::new()), Box::new(AmcMax::new())];
        for test in &tests {
            let mut state = test.admission_state_in(&WorkspaceRef::new());
            let mut pending: Vec<Task> = ts.iter().copied().collect();
            for &op in &ops {
                let admit = op & 1 == 0 || state.tasks().is_empty();
                if admit {
                    let Some(task) = pending.pop() else { break };
                    let mut union = state.tasks().clone();
                    union.push_unchecked(task);
                    let expected = test.is_schedulable(&union);
                    prop_assert_eq!(
                        state.try_admit(&task),
                        expected,
                        "{} probe diverged on {}",
                        test.name(),
                        &union
                    );
                    if expected {
                        state.commit(task);
                    } else {
                        pending.insert(0, task);
                    }
                } else {
                    let committed = state.tasks().clone();
                    let k = (op >> 1) as usize % committed.len();
                    let victim = committed.as_slice()[k];
                    prop_assert!(state.remove(victim.id()));
                    pending.push(victim);
                }
            }
            // The surviving committed set still judges like a fresh set.
            prop_assert_eq!(
                state.tasks().is_empty() || test.is_schedulable(state.tasks()),
                true,
                "{} left an unschedulable committed set",
                test.name()
            );
        }
    }
}

/// The deterministic generator-shaped corpus: every set of every workload
/// compared through one long-lived workspace (buffer reuse across wildly
/// different sets must never leak into a verdict).
#[test]
fn seeded_corpus_streaming_equivalence() {
    let workloads = [
        (2usize, DeadlineModel::Implicit, 0.55, 0.30, 0.35, 21u64),
        (2, DeadlineModel::Constrained, 0.70, 0.35, 0.40, 22),
        (4, DeadlineModel::Implicit, 0.80, 0.40, 0.45, 23),
        (8, DeadlineModel::Constrained, 0.60, 0.25, 0.50, 24),
    ];
    let mut ws = AnalysisWorkspace::new();
    let mut generated = 0usize;
    let mut compared = 0usize;
    for (m, deadlines, u_hh, u_hl, u_ll, seed) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut made = 0usize;
        let mut guard = 0usize;
        while made < 40 && guard < 1000 {
            guard += 1;
            let Ok(ts) = spec.generate(&mut rng) else {
                continue;
            };
            made += 1;
            compared += assert_workspace_equivalent(&ts, &mut ws);
        }
        assert_eq!(made, 40, "generator starved at m={m} {deadlines}");
        generated += made;
    }
    assert!(generated >= 160, "corpus too small: {generated}");
    assert!(compared >= 160, "comparisons too few: {compared}");
}

/// Values past the fast-kernel certificate (wcets and periods at the
/// 2^62–2^63 scale) must take the guarded kernels and still
/// reproduce the seed bounds bit-identically — saturation in the guarded
/// path and the seed's overflow-checked fixpoint reject identically.
#[test]
fn guarded_kernel_bounds_match_reference() {
    let big = 1u64 << 62;
    let sets = [
        // Feasible at the huge scale: one heavy HC task under a light one.
        TaskSet::try_from_tasks(vec![
            Task::hi_constrained(0, big, 1, big / 4, big / 2).unwrap(),
            Task::hi_constrained(1, big + 7, big / 8, big / 2, big).unwrap(),
            Task::lo_constrained(2, big, big / 16, big / 2).unwrap(),
        ])
        .unwrap(),
        // Interference sums that saturate: both paths must reject.
        TaskSet::try_from_tasks(vec![
            Task::hi_constrained(0, 3, 1, 1, 2).unwrap(),
            Task::hi_constrained(1, big + 1, big - 1, big - 1, big).unwrap(),
            Task::hi_constrained(2, big + 2, big - 2, big - 1, big).unwrap(),
        ])
        .unwrap(),
        // A single huge-period task alongside small certified ones: the
        // mixed set leaves the certificate, not just its big member.
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
            Task::hi_constrained(2, big, 100, 200, big / 2).unwrap(),
        ])
        .unwrap(),
    ];
    let mut ws = AnalysisWorkspace::new();
    for ts in &sets {
        assert_batched_bounds_equivalent(ts);
        for test in [AmcRtb::new(), AmcRtb::with_audsley()] {
            assert_eq!(
                test.is_schedulable_in(ts, &mut ws),
                test.is_schedulable(ts),
                "{} workspace verdict diverged on {ts}",
                test.name()
            );
        }
        assert_eq!(
            AmcMax::new().is_schedulable_in(ts, &mut ws),
            reference::amc_max_is_schedulable(ts),
            "AMC-max verdict diverged from the seed implementation on {ts}"
        );
        // The guarded AMC-max walk, bound for bound.
        for i in 0..ts.len() {
            assert_eq!(
                reference::amc_max_bound_streamed(ts, i),
                reference::amc_max_bound(ts, i),
                "guarded AMC-max bound diverged for τ{i} of {ts}"
            );
        }
    }
}

/// The overflow regression at workspace-integration level: a candidate
/// step sequence that would overflow `u64` (the seed loop's `t += period`)
/// must end the stream exactly, end to end through the public test.
#[test]
fn near_max_periods_run_end_to_end() {
    let big = 1u64 << 63;
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi_constrained(0, big + 2, 1, 1, big).unwrap(),
        Task::hi_constrained(1, big + 100, big + 10, big + 10, big + 50).unwrap(),
    ])
    .unwrap();
    let mut ws = AnalysisWorkspace::new();
    assert!(AmcMax::new().is_schedulable_in(&ts, &mut ws));
    assert!(AmcMax::new().is_schedulable(&ts));
    // The admission layer sees the same instants.
    let test = AmcMax::new();
    let mut state = test.admission_state_in(&WorkspaceRef::new());
    for t in &ts {
        assert!(state.try_admit(t));
        state.commit(*t);
    }
}

/// Whether priority order `order` (highest first) passes AMC-rtb:
/// low-mode RTA through [`LoRta::compute_with_order`], then every HC
/// task's rtb recurrence
/// `R = C^H_i + Σ_{k∈hpH} ⌈R/T_k⌉·C^H_k + Σ_{j∈hpL} ⌈R^LO_i/T_j⌉·C^L_j`
/// by plain scalar iteration from `C^H_i`.
fn rtb_passes_under(ts: &TaskSet, order: &[usize]) -> bool {
    let Some(lo) = LoRta::compute_with_order(ts, order) else {
        return false;
    };
    let tasks = ts.as_slice();
    for (pos, &i) in order.iter().enumerate() {
        let ti = &tasks[i];
        if ti.criticality() != Criticality::High {
            continue;
        }
        let (hp_hi, hp_lo): (Vec<&Task>, Vec<&Task>) = order[..pos]
            .iter()
            .map(|&j| &tasks[j])
            .partition(|t| t.criticality() == Criticality::High);
        let r_lo = lo[i].as_ticks();
        let lc: u64 = hp_lo
            .iter()
            .map(|t| r_lo.div_ceil(t.period().as_ticks()) * t.wcet_lo().as_ticks())
            .sum();
        let mut r = ti.wcet_hi().as_ticks();
        loop {
            let hc: u64 = hp_hi
                .iter()
                .map(|t| r.div_ceil(t.period().as_ticks()) * t.wcet_hi().as_ticks())
                .sum();
            let next = ti.wcet_hi().as_ticks() + lc + hc;
            if next > ti.deadline().as_ticks() {
                return false;
            }
            if next == r {
                break;
            }
            r = next;
        }
    }
    true
}

/// Every permutation of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(n, &mut (0..n).collect(), &mut out);
    out
}

/// Audsley's OPA for AMC-rtb against a brute-force oracle: a set is
/// accepted iff **some** priority order passes the rtb analysis, and the
/// order `audsley_order` returns is itself such a witness. Seeded sets of
/// 2–6 tasks with constrained deadlines, loaded near the feasibility edge
/// so both verdicts occur (and some sets need a non-DM order).
#[test]
fn audsley_matches_brute_force_opa() {
    let mut rng = StdRng::seed_from_u64(14);
    let (mut accepted, mut rejected, mut beyond_dm) = (0usize, 0usize, 0usize);
    for _ in 0..300 {
        let n = rng.random_range(2..=6usize);
        let tasks: Vec<Task> = (0..n as u32)
            .map(|id| {
                let period = rng.random_range(4..=40u64);
                let c_lo = rng.random_range(1..=(period / n as u64).max(1));
                let d = rng.random_range(c_lo..=period);
                if rng.random_bool(0.5) {
                    let c_hi = rng.random_range(c_lo..=d);
                    Task::hi_constrained(id, period, c_lo, c_hi, d).expect("valid")
                } else {
                    Task::lo_constrained(id, period, c_lo, d).expect("valid")
                }
            })
            .collect();
        let ts = TaskSet::try_from_tasks(tasks).expect("distinct ids");
        let feasible = permutations(n)
            .iter()
            .any(|order| rtb_passes_under(&ts, order));
        assert_eq!(
            AmcRtb::with_audsley().is_schedulable(&ts),
            feasible,
            "OPA verdict diverged from the brute-force oracle on {ts}"
        );
        match AmcRtb::audsley_order(&ts) {
            Some(order) => {
                assert!(
                    rtb_passes_under(&ts, &order),
                    "Audsley witness {order:?} fails the rtb analysis on {ts}"
                );
                accepted += 1;
                beyond_dm += usize::from(!AmcRtb::new().is_schedulable(&ts));
            }
            None => {
                assert!(!feasible, "Audsley found no order for feasible {ts}");
                rejected += 1;
            }
        }
    }
    assert!(accepted >= 50, "too few accepts: {accepted}");
    assert!(rejected >= 50, "too few rejects: {rejected}");
    assert!(
        beyond_dm >= 5,
        "too few sets needed a non-DM order: {beyond_dm}"
    );
}
