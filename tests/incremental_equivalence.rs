//! The incremental admission layer must be **bit-identically** equivalent
//! to the seed clone-and-retest path: for every task set, strategy,
//! processor count and uniprocessor test, `Partition::build` with the
//! test's native `AdmissionState` produces the exact same task→processor
//! map (or the exact same `PartitionError`) as building through the
//! `OneShot` bridge, which re-runs the one-shot test per attempt.
//!
//! The batch build and a live `ClusterSession` replaying the same
//! allocation order must place every task identically, too.
//!
//! Two layers of evidence:
//!
//! * proptests over unconstrained random task sets (implicit and
//!   constrained deadlines), all five tests;
//! * a deterministic generator-shaped corpus (≥ 500 sets across
//!   implicit/constrained workloads × all five tests), matching the
//!   acceptance criterion of the incremental-admission milestone;
//! * saturated CU-UDP-ECDF m=8 sessions (tens of tasks per processor)
//!   held against the retained seed ECDF, the regime where the tuner's
//!   starts run deep enough for its EY fallback to replay a shared
//!   trajectory.

use mcsched::analysis::vdtune::reference;
use mcsched::analysis::{
    AdmissionState, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, IncrementalTest, OneShot, SchedulabilityTest,
    WorkspaceRef,
};
use mcsched::core::{presets, AdmitError, AlgorithmSpec, ClusterSession, Partition, TestName};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Task, TaskId, TaskSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// An arbitrary task set of 1..=8 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=8).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(arb_task).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

/// A test, its clone-and-retest reference, and a display name.
type TestPair = (
    Box<dyn SchedulabilityTest>,
    Box<dyn SchedulabilityTest>,
    &'static str,
);

/// The five uniprocessor tests paired with their clone-and-retest
/// reference.
fn test_pairs() -> Vec<TestPair> {
    vec![
        (
            Box::new(EdfVd::new()),
            Box::new(OneShot(EdfVd::new())),
            "EDF-VD",
        ),
        (Box::new(Ey::new()), Box::new(OneShot(Ey::new())), "EY"),
        (
            Box::new(Ecdf::new()),
            Box::new(OneShot(Ecdf::new())),
            "ECDF",
        ),
        (
            Box::new(AmcRtb::new()),
            Box::new(OneShot(AmcRtb::new())),
            "AMC-rtb",
        ),
        (
            Box::new(AmcMax::new()),
            Box::new(OneShot(AmcMax::new())),
            "AMC-max",
        ),
    ]
}

/// Asserts bit-identical builds for one set across strategies, tests and
/// processor counts; returns how many comparisons were made.
fn assert_equivalent(ts: &TaskSet, m_values: &[usize]) -> usize {
    let mut compared = 0;
    for (incremental, one_shot, name) in test_pairs() {
        for strategy in [presets::ca_udp(), presets::cu_udp(), presets::ca_f_f()] {
            for &m in m_values {
                let fast = Partition::build(&strategy, &incremental, ts, m);
                let slow = Partition::build(&strategy, &one_shot, ts, m);
                assert_eq!(
                    fast,
                    slow,
                    "{name}/{} diverged at m={m} on {ts}",
                    strategy.name()
                );
                compared += 1;
            }
        }
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_build_is_bit_identical(ts in arb_taskset(), m in 1usize..=4) {
        assert_equivalent(&ts, &[m]);
    }

    #[test]
    fn incremental_states_agree_step_by_step(ts in arb_taskset()) {
        // Below the partitioner: drive each native state task by task and
        // compare every single admission verdict with the one-shot test.
        for (incremental, _, name) in test_pairs() {
            let mut state = incremental.admission_state_in(&WorkspaceRef::new());
            for task in &ts {
                let mut union = state.tasks().clone();
                union.push_unchecked(*task);
                let expected = incremental.is_schedulable(&union);
                prop_assert_eq!(state.try_admit(task), expected, "{} on {}", name, task);
                if expected {
                    state.commit(*task);
                }
            }
            // The cached summary is bit-identical to a recomputation.
            let cached = state.summary();
            let fresh = state.tasks().system_utilization();
            prop_assert_eq!(cached.u_ll.to_bits(), fresh.u_ll.to_bits());
            prop_assert_eq!(cached.u_hl.to_bits(), fresh.u_hl.to_bits());
            prop_assert_eq!(cached.u_hh.to_bits(), fresh.u_hh.to_bits());
        }
    }
}

/// The seeded corpus: 130 generator-shaped task sets for each of four
/// implicit/constrained workloads, tagged with the workload's `m`.
fn seeded_corpus() -> Vec<(usize, TaskSet)> {
    let workloads = [
        (2usize, DeadlineModel::Implicit, 0.55, 0.30, 0.35, 1u64),
        (2, DeadlineModel::Constrained, 0.70, 0.35, 0.40, 2),
        (4, DeadlineModel::Implicit, 0.80, 0.40, 0.45, 3),
        (4, DeadlineModel::Constrained, 0.60, 0.25, 0.50, 4),
    ];
    let mut corpus = Vec::new();
    for (m, deadlines, u_hh, u_hl, u_ll, seed) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut made = 0usize;
        let mut guard = 0usize;
        while made < 130 && guard < 2000 {
            guard += 1;
            let Ok(ts) = spec.generate(&mut rng) else {
                continue;
            };
            made += 1;
            corpus.push((m, ts));
        }
        assert_eq!(made, 130, "generator starved at m={m} {deadlines}");
    }
    corpus
}

/// The seeded corpus acceptance criterion: ≥ 500 generator-shaped task
/// sets across implicit and constrained deadlines, every build compared
/// bit-for-bit across all five tests.
#[test]
fn seeded_corpus_equivalence() {
    let corpus = seeded_corpus();
    let mut compared = 0usize;
    for (m, ts) in &corpus {
        compared += assert_equivalent(ts, &[*m]);
    }
    assert!(corpus.len() >= 500, "corpus too small: {}", corpus.len());
    assert!(compared >= 500 * 5, "comparisons too few: {compared}");
}

/// The uniprocessor test a registry [`TestName`] denotes.
fn uni_test(test: TestName) -> Box<dyn SchedulabilityTest> {
    match test {
        TestName::EdfVd => Box::new(EdfVd::new()),
        TestName::Ey => Box::new(Ey::new()),
        TestName::Ecdf => Box::new(Ecdf::new()),
        TestName::AmcRtb => Box::new(AmcRtb::new()),
        TestName::AmcMax => Box::new(AmcMax::new()),
    }
}

/// The batch build and a session replay of the strategy's allocation
/// order place every task on the same processor, fail on the same task
/// with the same per-processor loads, and make the same admission
/// queries — over the seeded corpus, every registry test, every preset
/// strategy and m ∈ {2, 4}.
#[test]
fn batch_build_matches_session_replay() {
    let ws = WorkspaceRef::new();
    for (_, ts) in seeded_corpus() {
        for test in TestName::ALL {
            let uni = uni_test(test);
            for strategy in presets::all() {
                let spec = AlgorithmSpec::new(strategy.clone(), test);
                for m in [2, 4] {
                    let ctx = format!("{} m={m} on {ts}", spec.name());
                    let (built, stats) =
                        Partition::build_reporting_in(&strategy, &uni, &ts, m, &ws);
                    let mut session = spec.open_cluster(m);
                    let mut failed = None;
                    for task in strategy.order().sequence(&ts) {
                        match session.admit(task) {
                            Ok(_) => {}
                            Err(AdmitError::Unschedulable {
                                task,
                                processor_loads,
                            }) => {
                                failed = Some((task, processor_loads));
                                break;
                            }
                            Err(e) => panic!("{ctx}: {e}"),
                        }
                    }
                    match built {
                        Ok(p) => {
                            assert_eq!(failed, None, "{ctx}");
                            let ids: Vec<Vec<TaskId>> = p
                                .iter()
                                .map(|set| set.iter().map(Task::id).collect())
                                .collect();
                            assert_eq!(session.snapshot(), ids, "{ctx}");
                        }
                        Err(e) => {
                            assert_eq!(failed, Some((e.task, e.processor_loads)), "{ctx}");
                        }
                    }
                    let replayed = session.stats();
                    assert_eq!(replayed.attempts, stats.attempts, "{ctx}");
                    assert_eq!(replayed.admits, stats.admits, "{ctx}");
                }
            }
        }
    }
}

/// EDF-VD states answer every query in O(1); a full sweep-sized build
/// must therefore never fall back to a full re-analysis.
#[test]
fn edfvd_states_never_run_full_analyses() {
    let spec = TaskSetSpec::paper_defaults(
        4,
        GridPoint {
            u_hh: 0.7,
            u_hl: 0.35,
            u_ll: 0.4,
        },
        DeadlineModel::Implicit,
    );
    let mut rng = StdRng::seed_from_u64(9);
    let ts = loop {
        if let Ok(ts) = spec.generate(&mut rng) {
            break ts;
        }
    };
    let ws = WorkspaceRef::new();
    let (_, stats) = Partition::build_reporting_in(&presets::ca_udp(), &EdfVd::new(), &ts, 4, &ws);
    assert!(stats.attempts > 0);
    assert_eq!(stats.full, 0);
    assert_eq!(stats.incremental, stats.attempts);
}

/// The typed `IncrementalTest` interface and the object-safe
/// `admission_state_in` hook hand out equivalent states.
#[test]
fn typed_and_dyn_states_agree() {
    let test = AmcMax::new();
    let mut typed = test.new_state();
    let mut dynamic = (&test as &dyn SchedulabilityTest).admission_state_in(&WorkspaceRef::new());
    let tasks = [
        Task::hi(0, 10, 2, 4).unwrap(),
        Task::lo(1, 15, 4).unwrap(),
        Task::hi(2, 30, 3, 9).unwrap(),
    ];
    for t in tasks {
        let a = typed.try_admit(&t);
        let b = dynamic.try_admit(&t);
        assert_eq!(a, b);
        if a {
            typed.commit(t);
            dynamic.commit(t);
        }
    }
    assert_eq!(typed.tasks(), dynamic.tasks());
}

/// The retained seed ECDF ([`reference::ecdf_is_schedulable`]) as a
/// test: `OneShot(Ecdf)` shares the production tuner, so only the seed
/// code is an independent oracle for it.
#[derive(Debug, Clone, Copy)]
struct SeedEcdf;

impl SchedulabilityTest for SeedEcdf {
    fn name(&self) -> &'static str {
        "ECDF"
    }

    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        reference::ecdf_is_schedulable(ts)
    }
}

/// Saturated sessions, the serving regime: four seeded CU-UDP-ECDF m=8
/// sessions, each fed 400 constrained-deadline arrivals generated at
/// `UB = 1.4`, so processors fill to tens of tasks and most late arrivals
/// are rejects that probe every processor. Every admit result and the
/// final placement match a session over the seed ECDF.
#[test]
fn saturated_ecdf_sessions_match_seed_tuner() {
    let mut spec = TaskSetSpec::paper_defaults(
        8,
        GridPoint {
            u_hh: 1.4,
            u_hl: 0.7,
            u_ll: 0.7,
        },
        DeadlineModel::Constrained,
    );
    spec.n_min = 400;
    spec.n_max = 400;
    let strategy = presets::cu_udp();
    let spec_ecdf = AlgorithmSpec::new(strategy.clone(), TestName::Ecdf);
    for seed in [1u64, 2, 3, 4] {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts = loop {
            if let Ok(ts) = spec.generate(&mut rng) {
                break ts;
            }
        };
        let mut fast = spec_ecdf.open_cluster(8);
        let mut seed_session =
            ClusterSession::with_test("seed", strategy.clone(), &OneShot(SeedEcdf), 8);
        let mut rejects = 0usize;
        for task in &ts {
            let got = fast.admit(*task);
            assert_eq!(got, seed_session.admit(*task), "seed {seed}, {task}");
            rejects += usize::from(got.is_err());
        }
        assert_eq!(fast.snapshot(), seed_session.snapshot(), "seed {seed}");
        let per_processor = fast.task_count() / 8;
        assert!(
            per_processor >= 20,
            "seed {seed}: not saturated ({per_processor} tasks/processor)"
        );
        assert!(rejects >= 100, "seed {seed}: only {rejects} rejects");
    }
}
