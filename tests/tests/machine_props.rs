//! The environment machine must be unobservable: bit-identical to the
//! reference tree evaluator.
//!
//! `MachineEvaluator` replaces substitution with persistent environments,
//! Rust recursion with an explicit frame stack, and re-evaluation of
//! substituted values with replay charging. None of that may be
//! observable: over seeded random programs *and* adversarial hand-rolled
//! internal terms (free variables, division by zero, ill-typed
//! applications, unguarded recursion under tiny fuel budgets), the
//! machine must agree with the tree `Evaluator` on values, recorded σ
//! environments, the `EvalError` taxonomy, and the exact step counts —
//! and the full pipeline must reproduce a transcript built from the tree
//! evaluator at pool sizes 1, 2, and 8.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use hazel::core::cc::{cc_expand, CollectError};
use hazel::core::live::{LiveError, LiveResult};
use hazel::core::{eval_splice, expansion::expand_invocation, Omega};
use hazel::lang::elab::{elab_ana, elab_syn};
use hazel::lang::eval::{resume_sigma, EvalError, Evaluator, DEFAULT_FUEL};
use hazel::lang::final_form::is_value;
use hazel::lang::machine::MachineEvaluator;
use hazel::lang::parse::parse_uexp;
use hazel::lang::typing::syn;
use hazel::lang::TermStore;
use hazel::prelude::*;
use hazel::sched::scope_workers;
use hazel::trace::{Counter, Stats, StatsSink, Tracer};
use integration_tests::{run_on_big_stack, run_on_stack, test_phi, Gen, GenConfig, XorShift};

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

/// Expands and elaborates a generated program, or `None` when the random
/// program fails a shared pipeline stage.
fn elaborated(phi: &LivelitCtx, program: &UExp) -> Option<IExp> {
    let (expanded, _, _) = expand_typed(phi, &Ctx::empty(), program).ok()?;
    let (d, _, _) = elab_syn(&Ctx::empty(), &expanded).ok()?;
    Some(d)
}

/// One evaluation outcome and the steps it consumed.
type Run = (Result<IExp, EvalError>, u64);

/// Runs the tree evaluator and the machine on `d` with the given fuel,
/// returning (result, steps) for each — tree first.
fn run_both(d: &IExp, fuel: u64) -> (Run, Run) {
    let mut tree_ev = Evaluator::with_fuel(fuel);
    let tree = tree_ev.eval(d);

    let mut store = TermStore::new();
    let t = store.intern_iexp(d);
    let mut machine = MachineEvaluator::with_fuel(&mut store, fuel);
    let machined = machine.eval(t);
    let machine_steps = machine.steps();
    let machined = machined.map(|r| store.to_iexp(r));

    ((tree, tree_ev.steps()), (machined, machine_steps))
}

#[test]
fn machine_matches_tree_on_random_programs() {
    let phi = test_phi();
    let mut compared = 0u32;
    for seed in 0..CASES {
        let (program, _) = gen_full(seed).program(&phi);
        let Some(d) = elaborated(&phi, &program) else {
            continue;
        };
        let ((tree, tree_steps), (machined, machine_steps)) = run_both(&d, DEFAULT_FUEL);
        assert_eq!(machined, tree, "seed {seed}: machine vs tree diverge");
        assert_eq!(machine_steps, tree_steps, "seed {seed}: steps diverge");
        // Hole closures — σ included — agree exactly.
        if let (Ok(a), Ok(b)) = (&tree, &machined) {
            assert_eq!(
                a.hole_closures(),
                b.hole_closures(),
                "seed {seed}: σ diverge"
            );
        }
        compared += 1;
    }
    assert!(
        u64::from(compared) >= CASES / 2,
        "only {compared} programs compared"
    );
}

/// An adversarial internal-term generator: unlike `Gen`, which produces
/// well-typed programs, this produces terms with free variables, holes
/// whose σ entries are open, ill-typed redexes (applying an integer,
/// branching on a list), division by zero, and unguarded `fix` — the
/// populations where the error taxonomy and the fuel clamp must agree.
fn gen_adversarial(rng: &mut XorShift, depth: u32) -> IExp {
    let vars = ["a", "b", "c"];
    if depth == 0 {
        return match rng.below(6) {
            0 => IExp::Int(rng.range(-3, 4)),
            1 => IExp::Bool(rng.bool()),
            2 => IExp::Var(Var::new(vars[rng.index(vars.len())])),
            3 => IExp::EmptyHole(
                HoleName(rng.below(4)),
                Sigma::identity([&Var::new(vars[rng.index(vars.len())])]),
            ),
            4 => IExp::Nil(Typ::Int),
            _ => IExp::Unit,
        };
    }
    let sub = |rng: &mut XorShift| Box::new(gen_adversarial(rng, depth - 1));
    match rng.below(12) {
        0 => {
            let op = [BinOp::Add, BinOp::Div, BinOp::Le, BinOp::Mul][rng.index(4)];
            IExp::Bin(op, sub(rng), sub(rng))
        }
        1 => IExp::If(sub(rng), sub(rng), sub(rng)),
        2 => IExp::Ap(sub(rng), sub(rng)),
        3 => IExp::Lam(Var::new(vars[rng.index(vars.len())]), Typ::Int, sub(rng)),
        4 => IExp::Fix(
            Var::new(vars[rng.index(vars.len())]),
            Typ::arrow(Typ::Int, Typ::Int),
            sub(rng),
        ),
        5 => IExp::Cons(sub(rng), sub(rng)),
        6 => IExp::ListCase(
            sub(rng),
            sub(rng),
            Var::new("h"),
            Var::new("t"),
            Box::new(gen_adversarial(rng, depth - 1)),
        ),
        7 => IExp::NonEmptyHole(HoleName(rng.below(4)), Sigma::empty(), sub(rng)),
        8 => IExp::Bin(BinOp::Div, sub(rng), Box::new(IExp::Int(0))),
        9 => IExp::Ap(Box::new(IExp::Int(3)), sub(rng)),
        10 => IExp::Tuple(vec![
            (Label::new("l"), gen_adversarial(rng, depth - 1)),
            (Label::new("r"), gen_adversarial(rng, depth - 1)),
        ]),
        _ => IExp::Proj(sub(rng), Label::new("l")),
    }
}

#[test]
fn machine_agrees_on_adversarial_terms_at_tiny_and_large_fuels() {
    // The recursive tree *oracle* needs a big stack for unguarded fix at
    // fuel 5000 — the machine itself does not (see
    // `deep_redex_evaluates_on_a_small_stack`).
    run_on_big_stack(machine_agrees_on_adversarial_terms_body);
}

fn machine_agrees_on_adversarial_terms_body() {
    let mut out_of_fuel_seen = 0u32;
    let mut errors_seen = 0u32;
    for seed in 0..200u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
        let d = gen_adversarial(&mut rng, 4);
        for fuel in [5u64, 50, 5_000] {
            let ((tree, tree_steps), (machined, machine_steps)) = run_both(&d, fuel);
            assert_eq!(
                machined, tree,
                "seed {seed} fuel {fuel}: machine vs tree diverge on {d:?}"
            );
            assert_eq!(
                machine_steps, tree_steps,
                "seed {seed} fuel {fuel}: machine vs tree steps diverge on {d:?}"
            );
            match &machined {
                Err(EvalError::OutOfFuel) => {
                    // The clamp: both evaluators land exactly one past
                    // the budget when fuel runs out.
                    assert_eq!(machine_steps, fuel + 1, "seed {seed} fuel {fuel}");
                    out_of_fuel_seen += 1;
                }
                Err(_) => errors_seen += 1,
                Ok(_) => {}
            }
        }
    }
    // The generator must actually exercise the error taxonomy.
    assert!(out_of_fuel_seen > 0, "no OutOfFuel cases generated");
    assert!(errors_seen > 0, "no typed-error cases generated");
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

/// One full pipeline run at the current pool size: the evaluated
/// cc-expansion, closure collection's per-hole σ lists in order, the
/// resumed result, and every live splice result, rendered into one
/// comparable transcript.
fn run_case(program: &UExp) -> (String, Stats) {
    let phi = &test_phi();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let transcript = {
        let _guard = hazel::trace::install(&tracer);
        let mut log = String::new();
        match collect(phi, program) {
            Err(e) => log.push_str(&format!("collect error: {e}\n")),
            Ok(collection) => {
                log.push_str(&format!("proto: {:?}\n", collection.proto_result));
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

/// The reference for [`run_case`]: the same pipeline built from the tree
/// evaluator (`Evaluator` and `resume_sigma`), returning its transcript
/// and the `EvalSteps` total the pipeline must report. That total counts
/// the collection's evaluation, the resumed result, and each distinct
/// (elaborated splice, σ) pair — the splice-result cache evaluates every
/// such pair once — but not σ resumption, which the pipeline does not
/// count either.
fn oracle_case(program: &UExp) -> (String, u64) {
    let phi = &test_phi();
    let mut steps = 0u64;
    let mut tree_eval = |d: &IExp| {
        let mut evaluator = Evaluator::with_fuel(DEFAULT_FUEL);
        let result = evaluator.eval(d);
        steps += evaluator.steps();
        result
    };
    let mut log = String::new();
    let collected = (|| -> Result<_, CollectError> {
        let mut omega = Omega::default();
        let cc_exp = cc_expand(phi, program, &mut omega)?;
        syn(&Ctx::empty(), &cc_exp)?;
        let (d_cc, _, delta) = elab_syn(&Ctx::empty(), &cc_exp)?;
        let proto = tree_eval(&d_cc)?;
        let mut proto_envs: BTreeMap<HoleName, Vec<Sigma>> = BTreeMap::new();
        for (u, sigma) in proto.hole_closures() {
            let entry = proto_envs.entry(u).or_default();
            if omega.contains(u) && !entry.contains(sigma) {
                entry.push(sigma.clone());
            }
        }
        let mut envs = BTreeMap::new();
        for (u, sigmas) in proto_envs {
            if sigmas.is_empty() {
                continue;
            }
            let resumed = sigmas
                .iter()
                .map(|sigma| resume_sigma(&omega.fill_sigma(sigma), DEFAULT_FUEL))
                .collect::<Result<Vec<_>, _>>()?;
            envs.insert(u, resumed);
        }
        Ok((omega, delta, proto, envs))
    })();
    match collected {
        Err(e) => log.push_str(&format!("collect error: {e}\n")),
        Ok((omega, delta, proto, envs)) => {
            log.push_str(&format!("proto: {proto:?}\n"));
            for (u, sigmas) in &envs {
                log.push_str(&format!("hole {u:?}: {sigmas:?}\n"));
            }
            let result = tree_eval(&omega.fill(&proto));
            log.push_str(&format!("result: {result:?}\n"));
            let mut evaluated: HashSet<String> = HashSet::new();
            for ap in invocations(program) {
                let sigmas = envs.get(&ap.hole).map(Vec::as_slice).unwrap_or(&[]);
                for (i, sigma) in sigmas.iter().enumerate() {
                    for splice in &ap.splices {
                        let r = (|| -> Result<Option<LiveResult>, LiveError> {
                            let Some(hyp) = delta.get(ap.hole) else {
                                return Ok(None);
                            };
                            let expanded = expand(phi, &splice.exp)?;
                            let (d, _) = elab_ana(&hyp.ctx, &expanded, &splice.ty)?;
                            let closed = sigma.apply(&d);
                            if !closed.is_closed() {
                                return Ok(None);
                            }
                            // Keyed like the splice-result cache; `Debug`
                            // tells `-0.0` from `0.0`, as interning does.
                            let mut evaluator = Evaluator::with_fuel(DEFAULT_FUEL);
                            let result = evaluator.eval(&closed);
                            if evaluated.insert(format!("{d:?} / {sigma:?}")) {
                                steps += evaluator.steps();
                            }
                            let result = result?;
                            Ok(Some(if is_value(&result) {
                                LiveResult::Val(result)
                            } else {
                                LiveResult::Indet(result)
                            }))
                        })();
                        log.push_str(&format!("splice {:?}/{i}: {r:?}\n", ap.hole));
                    }
                }
            }
        }
    }
    (log, steps)
}

/// Counter totals that must agree at any pool size: everything except the
/// documented nondeterministic scheduling quantities.
fn deterministic_totals(stats: &Stats) -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .filter(|c| !matches!(c, Counter::SchedSteals | Counter::SchedIdleNs))
        .map(|c| (c.as_str(), stats.counter(*c)))
        .collect()
}

#[test]
fn pipeline_matches_the_tree_oracle_at_pool_sizes_1_2_8() {
    let phi = test_phi();
    let mut compared = 0u32;
    for seed in 0..12u64 {
        let (program, _) = gen_full(seed).program(&phi);
        // The recursive oracle runs on a big stack; the pipeline does not
        // need one.
        let (oracle, oracle_steps) = run_on_big_stack(|| oracle_case(&program));

        let _pool = scope_workers(1);
        let (seq, seq_stats) = run_case(&program);
        assert_eq!(
            seq, oracle,
            "seed {seed}: pipeline diverges from the tree oracle"
        );
        assert_eq!(
            seq_stats.counter(Counter::EvalSteps),
            oracle_steps,
            "seed {seed}: EvalSteps diverge from the tree oracle"
        );
        for workers in [2usize, 8] {
            let _pool = scope_workers(workers);
            let (parallel, par_stats) = run_case(&program);
            assert_eq!(
                seq, parallel,
                "seed {seed}: transcript diverges at {workers} workers"
            );
            assert_eq!(
                deterministic_totals(&seq_stats),
                deterministic_totals(&par_stats),
                "seed {seed}: counters diverge at {workers} workers"
            );
        }
        compared += 1;
    }
    assert!(compared > 0);
}

#[test]
fn repeated_splice_evaluations_miss_the_splice_cache_once() {
    let phi = test_phi();
    // let baseline = 57 in $sum2(baseline + 50, 1) — one livelit with a
    // splice that uses a client variable, so evaluation is non-trivial.
    let program = UExp::Let(
        Var::new("baseline"),
        None,
        Box::new(UExp::Int(57)),
        Box::new(UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$sum2"),
            model: IExp::Unit,
            splices: vec![
                Splice::new(
                    UExp::Bin(
                        BinOp::Add,
                        Box::new(UExp::Var(Var::new("baseline"))),
                        Box::new(UExp::Int(50)),
                    ),
                    Typ::Int,
                ),
                Splice::new(UExp::Int(1), Typ::Int),
            ],
            hole: HoleName(0),
        }))),
    );
    let collection = collect(&phi, &program).expect("fixed program collects");
    let hole = HoleName(0);
    assert!(
        !collection.envs_for(hole).is_empty(),
        "no closure collected"
    );
    let splice = &invocations(&program)[0].splices[0];
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let _guard = hazel::trace::install(&tracer);
    // The cache key is (interned splice, σ id): the first call misses and
    // evaluates, the next two are served from the cache.
    let results: Vec<_> = (0..3)
        .map(|_| eval_splice(&phi, &collection, hole, 0, &splice.exp, &splice.ty))
        .collect();
    assert_eq!(results[0], Ok(Some(LiveResult::Val(IExp::Int(107)))));
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
    let stats = sink.snapshot();
    assert_eq!(stats.counter(Counter::SpliceCacheMisses), 1);
    assert_eq!(stats.counter(Counter::SpliceCacheHits), 2);
}

#[test]
fn deep_redex_evaluates_on_a_small_stack() {
    // A 10k-deep application chain: (λx. x + 10000) ((λx. x + 9999) (…
    // (λx. x + 1) 0 …)). The tree evaluator needs a big-stack thread for
    // this; the machine's control state lives on its frame arena, so a
    // 64 KiB thread stack must suffice.
    let depth: i64 = 10_000;
    let built = run_on_stack(64 * 1024, || {
        use hazel::lang::store::Node;
        let mut store = TermStore::new();
        let mut term = store.intern(Node::Int(0));
        for k in 1..=depth {
            let lam = {
                let x = store.intern_var(&Var::new("x"));
                let body = {
                    let vx = store.intern(Node::Var(x));
                    let kk = store.intern(Node::Int(k));
                    store.intern(Node::Bin(BinOp::Add, vx, kk))
                };
                store.intern(Node::Lam(x, Typ::Int, body))
            };
            term = store.intern(Node::Ap(lam, term));
        }
        let mut machine = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL);
        let result = machine.eval(term).expect("deep redex evaluates");
        store.to_iexp(result)
    });
    assert_eq!(built, IExp::Int((1..=depth).sum()));
}

/// A 10k-deep recursion as surface syntax: `go 10000` returns `base`
/// from the bottom, and each level applies the operator prefix `op` to
/// the result on the way back up, so no call is a tail call.
fn deep_recursion(ty: &str, base: &str, op: &str) -> String {
    format!(
        "let rec go : Int -> {ty} = fun n : Int -> \
         if n <= 0 then {base} else {op} (go (n - 1)) in go 10000"
    )
}

/// The text content of a view, in document order.
fn flatten(h: &Html<Action>) -> String {
    match h {
        Html::Text(s) => s.clone(),
        Html::Element { children, .. } => children.iter().map(flatten).collect(),
        Html::Editor { .. } | Html::ResultView { .. } => String::new(),
    }
}

#[test]
fn deep_expansion_and_plot_sampling_run_on_a_small_stack() {
    // Object-livelit expansion (premises 3–4) and `$plot` sampling are the
    // evaluations outside the traced pipeline. Both run on the machine's
    // frame arena, so a 10k-deep recursion needs no host stack to speak
    // of; the recursive tree evaluator needs tens of MiB for it.
    let expand_src = format!(
        "fun m : Unit -> {}",
        deep_recursion("Str", "\"7\"", "\"\" ^")
    );
    let expand_fn = {
        let e = parse_uexp(&expand_src).expect("parses");
        let expanded = hazel::core::expand(&LivelitCtx::new(), &e).expect("no livelits");
        elab_syn(&Ctx::empty(), &expanded).expect("elaborates").0
    };
    let mut phi = LivelitCtx::new();
    phi.define(LivelitDef::object(
        "$deep",
        vec![],
        Typ::Int,
        Typ::Unit,
        expand_fn,
    ))
    .expect("well-formed");
    let ap = LivelitAp {
        name: LivelitName::new("$deep"),
        model: IExp::Unit,
        splices: vec![],
        hole: HoleName(0),
    };

    let plot: Arc<dyn Livelit> = Arc::new(hazel::std::plot::PlotLivelit);
    let mut plot_phi = LivelitCtx::new();
    plot_phi
        .define(hazel::mvu::host::def_for(&plot))
        .expect("well-formed");
    let mut inst = Instance::new(plot, HoleName(1), vec![], 1 << 20).expect("instance");
    let f_src = format!(
        "fun x : Float -> {}",
        deep_recursion("Float", "x", "0.0 +.")
    );
    inst.edit_splice(SpliceRef(0), parse_uexp(&f_src).expect("parses"))
        .expect("edits");

    let expansion = run_on_stack(64 * 1024, || expand_invocation(&phi, &ap));
    assert_eq!(expansion.expect("expands").pexpansion, EExp::Int(7));
    // Rendering also elaborates the splice, whose unoptimized frames need
    // a few hundred KiB in debug builds; 1 MiB leaves that room and is
    // still far below what the tree evaluator would need.
    let view = run_on_stack(1024 * 1024, || {
        inst.view(&plot_phi, &Ctx::empty(), &[Sigma::empty()], DEFAULT_FUEL)
    });
    let text = flatten(&view.expect("renders"));
    assert!(text.contains('•'), "plot should have points: {text}");
}
