//! Acceptance tests for the `hazel serve` subcommand: the golden
//! transcript, crash-proofing under garbage input, and the
//! `LIVELIT_THREADS` fallback warning.
//!
//! The golden pins the full reply stream for a mixed two-session request
//! script at `--workers 1` (the deterministic configuration CI diffs).
//! Regenerate after an intentional protocol change with
//! `hazel serve --stdio --workers 1 \
//!    < crates/hazel/tests/golden/serve_session.requests.jsonl \
//!    > crates/hazel/tests/golden/serve_session.golden.jsonl`.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `hazel serve` with `input` on stdin and extra env vars set.
fn serve(args: &[&str], env: &[(&str, &str)], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .arg("serve")
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn requests() -> String {
    std::fs::read_to_string(golden_path("serve_session.requests.jsonl")).unwrap()
}

#[test]
fn serve_matches_the_golden_transcript_at_one_worker() {
    let out = serve(&["--stdio", "--workers", "1"], &[], &requests());
    assert!(out.status.success(), "{out:?}");
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn serve_transcript_is_identical_with_metrics_disabled() {
    // Metrics are on by default; nothing they record may leak into reply
    // bytes unless a client opts in. `--no-metrics` must therefore replay
    // the exact same golden, and the metrics-on run must confine its
    // summary/slow-request dump to stderr.
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    let with = serve(&["--stdio", "--workers", "1"], &[], &requests());
    assert!(with.status.success(), "{with:?}");
    assert_eq!(String::from_utf8(with.stdout).unwrap(), golden);
    let stderr = String::from_utf8(with.stderr).unwrap();
    assert!(stderr.contains("hazel serve: metrics:"), "stderr: {stderr}");

    let without = serve(
        &["--stdio", "--workers", "1", "--no-metrics"],
        &[],
        &requests(),
    );
    assert!(without.status.success(), "{without:?}");
    assert_eq!(String::from_utf8(without.stdout).unwrap(), golden);
    let quiet = String::from_utf8(without.stderr).unwrap();
    assert!(!quiet.contains("metrics:"), "stderr: {quiet}");
}

#[test]
fn serve_metrics_op_reports_request_totals() {
    // A live `metrics` snapshot after real traffic: deterministic totals
    // are exact, the nondeterministic sections are present and shaped.
    let mut input = requests();
    input.push_str("{\"op\":\"metrics\",\"id\":99,\"slow\":true}\n");
    let out = serve(&["--stdio", "--workers", "1"], &[], &input);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"ok\":true,\"id\":99,\"op\":\"metrics\",\"enabled\":true,"),
        "{last}"
    );
    for field in [
        "\"closed_sessions\":2",
        "\"queue_depth\":",
        "\"workers\":1",
        "\"uptime_ns\":",
        "\"ops\":[",
        "\"p99_ns\":",
        "\"phases\":[",
        "\"counters\":{",
        "\"slow\":[",
        "serve.open",
    ] {
        assert!(last.contains(field), "missing {field} in {last}");
    }
}

#[test]
fn serve_transcript_is_stable_under_livelit_threads_1() {
    // The CI smoke matrix runs serve both with the default pool and with
    // `LIVELIT_THREADS=1`; sequential requests must not depend on it.
    let out = serve(
        &["--stdio", "--workers", "1"],
        &[("LIVELIT_THREADS", "1")],
        &requests(),
    );
    assert!(out.status.success(), "{out:?}");
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn serve_batch_mode_replays_the_same_transcript() {
    let out = serve(&["--stdio", "--batch", "--workers", "2"], &[], &requests());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    // Per-session request order is preserved inside a batch, so every
    // session-addressed reply is byte-identical to the sequential golden.
    // The one session-less request (the global `stats`, id 18) is handled
    // before the fan-out by design, so its tallies legitimately differ.
    let got: Vec<&str> = stdout.lines().collect();
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(got.len(), want.len(), "{stdout}");
    for (g, w) in got.iter().zip(&want) {
        if w.contains("\"id\":18,") {
            assert!(
                g.starts_with("{\"ok\":true,\"id\":18,\"op\":\"stats\""),
                "{g}"
            );
        } else {
            assert_eq!(g, w);
        }
    }
}

#[test]
fn serve_survives_garbage_and_exits_cleanly() {
    // A hostile stream: binary-ish junk, deep nesting, half-open strings.
    // Every line must yield exactly one error reply, and the process must
    // still exit 0 when stdin closes — never crash.
    let garbage = "\u{1}\u{2}\u{3}\n\
        {\"op\":\n\
        [[[[[[[[[[[[[[[[\n\
        {\"op\":\"open\",\"session\":\"s\",\"source\":\"\\udc00\n\
        \"unterminated\n\
        9999999999999999999999999999\n\
        {\"op\":\"open\",\"session\":123,\"source\":\"1\"}\n";
    let out = serve(&["--stdio", "--workers", "1"], &[], garbage);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 7, "{stdout}");
    for reply in replies {
        assert!(reply.starts_with("{\"ok\":false,"), "{reply}");
    }
}

#[test]
fn serve_without_stdio_is_a_usage_error() {
    let out = serve(&[], &[], "");
    assert_eq!(out.status.code(), Some(2));
    let bad_workers = serve(&["--stdio", "--workers", "0"], &[], "");
    assert_eq!(bad_workers.status.code(), Some(2));
}

#[test]
fn usage_documents_the_livelit_threads_range() {
    let out = Command::new(env!("CARGO_BIN_EXE_hazel")).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(usage.contains("LIVELIT_THREADS"), "{usage}");
    assert!(usage.contains("integer >= 1"), "{usage}");
    assert!(
        usage.contains("serve (--stdio | --listen ADDR | --uds PATH)"),
        "{usage}"
    );
    assert!(usage.contains("--snapshot-dir"), "{usage}");
}

/// The satellite-4 regression: `LIVELIT_THREADS=0` (and other invalid
/// values) must not be honored silently — the process warns exactly once
/// on stderr, names the fallback, and keeps serving.
#[test]
fn invalid_livelit_threads_warns_once_and_falls_back() {
    // No --workers override: the env var is actually consulted when the
    // pool spins up for the renders.
    let out = serve(&["--stdio"], &[("LIVELIT_THREADS", "0")], &requests());
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let warnings = stderr
        .lines()
        .filter(|l| l.contains("ignoring LIVELIT_THREADS=\"0\""))
        .count();
    assert_eq!(warnings, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("expected an integer >= 1"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("falling back to available parallelism"),
        "stderr: {stderr}"
    );

    // Unparseable values take the same path.
    let out = serve(&["--stdio"], &[("LIVELIT_THREADS", "lots")], &requests());
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr
            .lines()
            .filter(|l| l.contains("ignoring LIVELIT_THREADS"))
            .count(),
        1,
        "stderr: {stderr}"
    );

    // A valid value stays silent.
    let out = serve(&["--stdio"], &[("LIVELIT_THREADS", "2")], &requests());
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("LIVELIT_THREADS"), "stderr: {stderr}");
}

/// SIGTERM must drain a socket server that is blocked waiting for
/// traffic: the signal has to wake the accept loop and every idle
/// handler, or the process hangs.
#[cfg(unix)]
#[test]
fn sigterm_drains_an_idle_socket_server() {
    use std::io::{BufRead, BufReader, Read};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let sock = std::env::temp_dir().join(format!("hazel-sigterm-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .args(["serve", "--uds"])
        .arg(&sock)
        .args(["--workers", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let (lines_tx, lines) = mpsc::channel();
    let stderr = BufReader::new(child.stderr.take().unwrap());
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            let _ = lines_tx.send(line);
        }
    });
    let listening = lines.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(listening.contains("listening on"), "{listening}");

    // One client, served once, then idle.
    let client = UnixStream::connect(&sock).unwrap();
    let mut writer = client.try_clone().unwrap();
    writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let mut reader = BufReader::new(client);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("{\"ok\":true,"), "{reply}");

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success());
    let killed = Instant::now();

    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("EOF after the drain");
    assert_eq!(rest, "");

    let exit = loop {
        if let Some(exit) = child.try_wait().unwrap() {
            break exit;
        }
        if killed.elapsed() > Duration::from_secs(2) {
            let _ = child.kill();
            panic!("hazel serve still running 2 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(exit.success(), "{exit:?}");
    // The reader thread ends at the exited child's stderr EOF.
    let stderr: Vec<String> = lines.iter().collect();
    assert!(
        stderr.iter().any(|l| l.contains("drained")),
        "stderr: {stderr:?}"
    );
    let _ = std::fs::remove_file(&sock);
}
