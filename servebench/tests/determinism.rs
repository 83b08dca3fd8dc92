//! The benchmark's determinism self-check: a short run of each workload
//! with a fixed round budget, twice with one seed and once with another.
//! Request counts per op, the mean render reply size, the journal size and
//! the evaluator's step count must repeat exactly for the same seed and
//! change with the seed. The `restart` runs must re-send at least one
//! request cut off by the drain, and editing a file the `hazel` binary is
//! not built from must not make it stale.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use servebench::drive::Budget;
use servebench::plan::Workload;
use servebench::{serve, Counts, Options};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the workspace")
        .to_owned()
}

fn counts(workload: Workload, seed: u64, hazel: &Path) -> Counts {
    let rounds = match workload {
        Workload::Interact => 3,
        Workload::EditLarge => 2,
        Workload::Restart => 8,
    };
    let opts = Options {
        workload,
        seed,
        budget: Budget::Rounds(rounds),
        trace: true,
        hazel: hazel.to_owned(),
        scratch: root().join(".servebench_tmp"),
    };
    let outcome = servebench::run(&opts).expect("the run completes");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failure);
    assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
    if workload == Workload::Restart {
        assert!(
            outcome.resent > 0,
            "the drain cut off a request that the next life answered"
        );
    }
    outcome.counts
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_another() {
    let root = root();
    let hazel = serve::build_hazel(&root).expect("a fresh release hazel builds");
    for workload in Workload::ALL {
        let first = counts(workload, 7, &hazel);
        let again = counts(workload, 7, &hazel);
        let other = counts(workload, 8, &hazel);
        let name = workload.name();
        assert_eq!(first, again, "{name}: the same seed repeats every count");
        assert_ne!(
            first.render_bytes_mean, other.render_bytes_mean,
            "{name}: another seed changes the rendered bytes"
        );
        assert_ne!(
            first.machine_steps, other.machine_steps,
            "{name}: another seed changes the evaluator's work"
        );
        if workload == Workload::Restart {
            assert!(first.journal_bytes > 0, "{name}: the journal is measured");
        }
    }
    let _ = std::fs::remove_dir(root.join(".servebench_tmp"));
}

#[test]
fn a_newer_test_file_does_not_make_the_binary_stale() {
    let root = root();
    serve::build_hazel(&root).expect("a fresh release hazel builds");
    std::fs::File::options()
        .append(true)
        .open(root.join("crates/hazel/tests/analyze.rs"))
        .and_then(|f| f.set_modified(SystemTime::now()))
        .expect("the test file is touched");
    serve::build_hazel(&root).expect("the binary is still fresh");
}
