//! The retained view arena must be unobservable: over seeded random edit
//! scripts, the [`IncrementalEngine`]'s arena-backed render pipeline —
//! memo hits, in-place reconciliation, generation stamps — must publish
//! view trees bit-identical to the legacy rebuild-everything pass
//! ([`compute_views_from_scratch`]), its stored reconcile output must
//! equal the legacy whole-tree diff and roll the previous snapshot
//! forward exactly, and the whole-script transcript plus the
//! deterministic trace-counter totals must agree at pool sizes 1, 2,
//! and 8.
//!
//! A second property pins the arena's memory-safety discipline directly:
//! freeing a tree invalidates every handle into it (stale-generation
//! lookups return `None`, never another node), and freelist reuse mints
//! ids that can never alias the freed ones.

use std::collections::BTreeMap;
use std::sync::Arc;

use hazel::editor::engine::ENGINE_FUEL;
use hazel::editor::{compute_views_from_scratch, open_module, IncrementalEngine};
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::mvu::{diff, try_apply, Html, NodeKind, ViewArena, ViewId};
use hazel::prelude::*;
use hazel::sched::scope_workers;
use hazel::trace::{Counter, Stats, StatsSink, Tracer};
use integration_tests::XorShift;

const SCRIPTS: u64 = 40;
const EDITS_PER_SCRIPT: usize = 6;

/// Splice replacement candidates, all well-typed at `Int` in the scope of
/// the module's `base`/`spare` definitions. Several evaluate to the same
/// value through different terms, so splice edits exercise both branches
/// of the memo key (content changed, σ-determined results changed).
const CONTENTS: &[&str] = &[
    "0",
    "7",
    "base",
    "spare",
    "base + spare",
    "let c = 2 in c",
    "if true then 1 else 2",
    "if false then base else 2",
];

/// A seeded module: two library definitions and two slider invocations
/// whose models and splices the script edits. Editing one invocation must
/// leave the other a memo hit.
fn module_source(rng: &mut XorShift) -> String {
    let spare_def = if rng.bool() { "base + 1" } else { "5" };
    format!(
        "def base : Int = {} ;;\n\
         def spare : Int = {spare_def} ;;\n\
         $slider@0{{3}}(1 : Int; 9 : Int) + $slider@1{{4}}({} : Int; 8 : Int)",
        rng.range(1, 20),
        CONTENTS[rng.index(CONTENTS.len())],
    )
}

/// Runs one whole edit script at the current pool size. After every step
/// the retained pipeline's published views are compared bit-for-bit
/// against the legacy from-scratch pass, and each hole's generation/patch
/// state is validated against the snapshot the test tracked from the
/// previous step. Returns the concatenated transcript, the counter
/// totals, and how many hole-steps took the non-empty-patch transition.
fn run_script(seed: u64) -> (String, Stats, usize) {
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let source = module_source(&mut rng);
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, mut doc) = open_module(registry, &source).expect("seeded module opens");

    let mut engine = IncrementalEngine::new();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let mut transcript = String::new();
    // What a patch-applying client would hold: the last tree it applied
    // and the generation the server stamped it with.
    let mut acked: BTreeMap<HoleName, (u64, Arc<Html<Action>>)> = BTreeMap::new();
    let mut patched_transitions = 0usize;
    {
        let _guard = hazel::trace::install(&tracer);
        for step in 0..=EDITS_PER_SCRIPT {
            if step > 0 {
                let hole = HoleName(rng.below(2));
                if rng.below(4) == 0 {
                    // A model transition: this hole's view recomputes and
                    // reconciles; the other hole must stay a memo hit.
                    doc.dispatch(hole, &iv::record([("set", iv::int(rng.range(0, 9)))]))
                        .expect("slider dispatch");
                } else {
                    let splice = SpliceRef(rng.below(2));
                    let contents = parse_uexp(CONTENTS[rng.index(CONTENTS.len())]).unwrap();
                    doc.edit_splice(hole, splice, contents).expect("edit");
                }
            }
            let views: BTreeMap<HoleName, Arc<Html<Action>>> = {
                let output = engine.run(&registry, &doc).expect("engine runs");
                let (legacy_views, legacy_errors) =
                    compute_views_from_scratch(&registry, &doc, &output.collection, ENGINE_FUEL);
                assert_eq!(
                    output.views.keys().collect::<Vec<_>>(),
                    legacy_views.keys().collect::<Vec<_>>(),
                    "seed {seed} step {step}: retained and legacy view key sets diverge"
                );
                for (u, view) in &output.views {
                    assert_eq!(
                        Some(&**view),
                        legacy_views.get(u),
                        "seed {seed} step {step}: retained view for {u:?} diverges from scratch"
                    );
                }
                assert_eq!(
                    output.view_errors, legacy_errors,
                    "seed {seed} step {step}: view errors diverge"
                );
                transcript.push_str(&format!(
                    "{step}:{:?}|{:?}\n",
                    output.views, output.view_errors
                ));
                output.views.clone()
            };
            for (u, view) in &views {
                let delta = engine
                    .view_delta(*u)
                    .expect("every published view has a retained root");
                match acked.get(u) {
                    Some((gen, snapshot)) if *gen == delta.gen => {
                        // No patch was emitted for this hole: the tree
                        // must be exactly what the client already holds.
                        assert_eq!(
                            **snapshot, **view,
                            "seed {seed} step {step}: unchanged generation but changed tree for {u:?}"
                        );
                    }
                    Some((gen, snapshot)) if *gen == delta.prev_gen => {
                        // One generation ahead: the stored reconcile
                        // output must equal the legacy whole-tree diff
                        // and roll the acked snapshot forward exactly.
                        assert_eq!(
                            *delta.last_patches,
                            diff(snapshot, view),
                            "seed {seed} step {step}: reconcile patches for {u:?} diverge from diff"
                        );
                        let applied = try_apply(snapshot, &delta.last_patches)
                            .expect("stored patches apply to the acked tree");
                        assert_eq!(
                            applied, **view,
                            "seed {seed} step {step}: patches do not roll {u:?} forward"
                        );
                        patched_transitions += 1;
                    }
                    Some((gen, _)) => panic!(
                        "seed {seed} step {step}: generation for {u:?} jumped from {gen} to {} \
                         (prev_gen {}) in a single run",
                        delta.gen, delta.prev_gen
                    ),
                    None => {}
                }
                acked.insert(*u, (delta.gen, Arc::clone(view)));
            }
            acked.retain(|u, _| views.contains_key(u));
            transcript.push_str(&format!("  live={}\n", engine.view_arena_live()));
        }
    }
    (transcript, sink.snapshot(), patched_transitions)
}

/// Every counter except the two documented nondeterministic scheduling
/// quantities.
fn deterministic_totals(stats: &Stats) -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .filter(|c| !matches!(c, Counter::SchedSteals | Counter::SchedIdleNs))
        .map(|c| (c.as_str(), stats.counter(*c)))
        .collect()
}

#[test]
fn retained_views_are_bit_identical_to_legacy_at_pool_sizes_1_2_8() {
    let mut patched_total = 0usize;
    for seed in 0..SCRIPTS {
        let _pool = scope_workers(1);
        let (sequential, seq_stats, seq_patched) = run_script(seed);
        for workers in [2usize, 8] {
            let _pool = scope_workers(workers);
            let (parallel, par_stats, par_patched) = run_script(seed);
            assert_eq!(
                sequential, parallel,
                "seed {seed}: transcript diverges at {workers} workers"
            );
            assert_eq!(
                deterministic_totals(&seq_stats),
                deterministic_totals(&par_stats),
                "seed {seed}: counter totals diverge at {workers} workers"
            );
            assert_eq!(
                seq_patched, par_patched,
                "seed {seed}: patch transitions diverge at {workers} workers"
            );
        }
        patched_total += seq_patched;
        // The property is about *retention*: the pipeline must actually
        // have kept nodes in place (memo hits or in-place reconciles), or
        // the scripts compare nothing.
        assert!(
            seq_stats.counter(Counter::ViewNodesReused) > 0,
            "seed {seed}: no view nodes reused across the script"
        );
        assert!(
            seq_stats.counter(Counter::ViewNodesRebuilt) > 0,
            "seed {seed}: no view nodes rebuilt across the script"
        );
    }
    assert!(
        patched_total >= 40,
        "property near-vacuous: only {patched_total} non-empty patch transitions across all scripts"
    );
}

/// Collects every id in the retained subtree under `id`.
fn subtree_ids(arena: &ViewArena<u32>, id: ViewId, out: &mut Vec<ViewId>) {
    out.push(id);
    if let Some(node) = arena.get(id) {
        if let NodeKind::Element { children, .. } = &node.kind {
            for child in children {
                subtree_ids(arena, *child, out);
            }
        }
    }
}

/// A small random `Html` tree for the arena invariants property.
fn random_tree(rng: &mut XorShift, depth: u32) -> Html<u32> {
    if depth == 0 || rng.below(3) == 0 {
        return Html::text(format!("t{}", rng.below(10)));
    }
    let n = rng.below(3) + 1;
    let children = (0..n).map(|_| random_tree(rng, depth - 1)).collect();
    Html::node(format!("div{}", rng.below(3)), children)
}

#[test]
fn arena_stale_handles_and_freelist_reuse_never_alias() {
    for seed in 0..50u64 {
        let mut rng = XorShift::new(seed);
        let mut arena: ViewArena<u32> = ViewArena::new();
        let mut peak_live = 0usize;
        let mut freed_ids: Vec<ViewId> = Vec::new();
        for _round in 0..8 {
            let tree = random_tree(&mut rng, 3);
            let root = arena.insert_tree(&tree, None);
            assert_eq!(
                arena.to_html(root),
                tree,
                "seed {seed}: retained tree round-trips"
            );
            let mut ids = Vec::new();
            subtree_ids(&arena, root, &mut ids);
            assert_eq!(ids.len(), tree.size(), "seed {seed}: every node reachable");
            // Every previously freed handle must still be dead, even
            // though its slot may now host a node of the new tree.
            for stale in &freed_ids {
                assert!(
                    arena.get(*stale).is_none(),
                    "seed {seed}: stale handle {stale:?} resolved after reuse"
                );
                // A live id occupying the same slot must carry a newer
                // generation — reuse never mints an aliasing handle.
                for live in &ids {
                    if live.index() == stale.index() {
                        assert!(
                            live.generation() > stale.generation(),
                            "seed {seed}: freelist reuse aliased {stale:?} as {live:?}"
                        );
                    }
                }
            }
            peak_live = peak_live.max(arena.live_count());
            arena.free_tree(root);
            assert_eq!(arena.live_count(), 0, "seed {seed}: free_tree frees all");
            for id in &ids {
                assert!(
                    arena.get(*id).is_none(),
                    "seed {seed}: handle {id:?} survived free_tree"
                );
            }
            freed_ids.extend(ids);
        }
        // Freed slots are reused before the slab grows: capacity is
        // bounded by the largest single tree, not the sum of all rounds.
        assert!(
            arena.capacity() <= peak_live,
            "seed {seed}: capacity {} exceeds peak live {peak_live} — freelist not reused",
            arena.capacity()
        );
    }
}
