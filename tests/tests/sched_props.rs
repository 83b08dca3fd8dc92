//! Parallel evaluation must be unobservable: at every pool size, the
//! pipeline's results are bit-identical to the sequential path.
//!
//! The scheduler parallelizes three hot loops — per-(hole, closure)
//! resumption inside closure collection, batched live splice evaluation,
//! and the post-edit refresh — by freezing the collection's term store
//! into an immutable snapshot, evaluating in task-private delta stores,
//! and merging the deltas back in task order. None of that machinery may
//! be observable: over seeded random programs, the collected σ per hole
//! *in order*, the resumed result, every live splice result, and the
//! totals of every deterministic trace counter must agree exactly at pool
//! sizes 1, 2, and 8. (`sched_steals` and `sched_idle_ns` are excluded:
//! they measure genuinely nondeterministic scheduling behavior and are
//! documented as such.)

use hazel::core::eval_splice;
use hazel::prelude::*;
use hazel::sched::scope_workers;
use hazel::trace::{Counter, Stats, StatsSink, Tracer};
use integration_tests::{test_phi, Gen, GenConfig};

const CASES: u64 = 40;

fn gen_full(seed: u64) -> Gen {
    // Same population as the store property suite: holes exercise σ
    // recording, livelits exercise expansion, collection, and splices.
    Gen::with_config(
        seed,
        GenConfig {
            exp_depth: 4,
            hole_pct: 15,
            livelit_pct: 25,
            typ_depth: 2,
        },
    )
}

/// Collects every livelit invocation in a program.
fn invocations(e: &UExp) -> Vec<LivelitAp> {
    let mut aps = Vec::new();
    let _ = e.map(&mut |n| {
        if let UExp::Livelit(ap) = &n {
            aps.push((**ap).clone());
        }
        n
    });
    aps
}

/// One full run at the current pool size: closure collection, the per-hole
/// σ lists in order, the resumed result, and every live splice result,
/// all rendered into one comparable transcript; plus the aggregated
/// counter totals observed along the way.
fn run_case(program: &UExp) -> (String, Stats) {
    // A fresh Φ per run: the expansion cache hangs off the livelit
    // context, and a warm cache from a previous run would shift the
    // hit/miss split even though the results are identical.
    let phi = &test_phi();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let transcript = {
        let _guard = hazel::trace::install(&tracer);
        let mut log = String::new();
        match collect(phi, program) {
            Err(e) => log.push_str(&format!("collect error: {e}\n")),
            Ok(collection) => {
                for (u, envs) in &collection.envs {
                    log.push_str(&format!("hole {u:?}: {envs:?}\n"));
                }
                log.push_str(&format!("result: {:?}\n", collection.resume_result()));
                for ap in invocations(program) {
                    let n_envs = collection.envs_for(ap.hole).len();
                    for i in 0..n_envs {
                        for splice in &ap.splices {
                            let r =
                                eval_splice(phi, &collection, ap.hole, i, &splice.exp, &splice.ty);
                            log.push_str(&format!("splice {:?}/{i}: {r:?}\n", ap.hole));
                        }
                    }
                }
            }
        }
        log
    };
    (transcript, sink.snapshot())
}

/// The deterministic counter totals: everything except the two documented
/// nondeterministic scheduling quantities.
fn deterministic_totals(stats: &Stats) -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .filter(|c| !matches!(c, Counter::SchedSteals | Counter::SchedIdleNs))
        .map(|c| (c.as_str(), stats.counter(*c)))
        .collect()
}

#[test]
fn pipeline_is_bit_identical_at_pool_sizes_1_2_8() {
    let phi = test_phi();
    let mut compared = 0u32;
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let _pool = scope_workers(1);
        let (sequential, seq_stats) = run_case(&program);
        for workers in [2usize, 8] {
            let _pool = scope_workers(workers);
            let (parallel, par_stats) = run_case(&program);
            assert_eq!(
                sequential, parallel,
                "seed {seed}: transcript diverges at {workers} workers"
            );
            assert_eq!(
                deterministic_totals(&seq_stats),
                deterministic_totals(&par_stats),
                "seed {seed}: counter totals diverge at {workers} workers"
            );
            compared += 1;
        }
    }
    assert!(compared >= 60, "property vacuous: {compared} runs compared");
}

#[test]
fn a_panicking_evaluation_task_is_an_internal_error_not_an_abort() {
    // The editor never aborts because one splice's evaluation panicked:
    // the pool catches the unwind and the bridge folds it into
    // `EvalError::Internal` at the task's slot, leaving sibling results
    // intact. (Works at any pool size; the global override set by the
    // identity test above does not affect the outcome.)
    use hazel::lang::eval::EvalError;
    let items: Vec<u32> = (0..32).collect();
    let results = hazel::core::par::run_tasks(&items, |_, &x| {
        assert!(x != 17, "splice evaluator panicked on purpose");
        x + 1
    });
    assert_eq!(results.len(), 32);
    for (i, r) in results.iter().enumerate() {
        if i == 17 {
            match r {
                Err(EvalError::Internal(msg)) => {
                    assert!(msg.contains("panicked"), "unexpected message: {msg}");
                }
                other => panic!("expected an internal error, got {other:?}"),
            }
        } else {
            assert_eq!(r.as_ref().unwrap(), &(i as u32 + 1));
        }
    }
}
