//! The `hazel serve` child process: building and vetting the binary,
//! spawning it on a Unix socket, draining it, and cleaning up after it on
//! every exit path.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use livelit_server::json::{self, Json};

/// How long a child may take to print its "listening" line, or to exit
/// after a drain, before the benchmark gives up on it.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the release `hazel` binary from the workspace at `root` with the
/// ambient `cargo` and `CARGO_TARGET_DIR`, vets it, and returns the path
/// cargo reports for it.
///
/// The binary is refused when its profile has debug assertions on (debug
/// builds validate every patch script inside `render`) or when one of the
/// sources it was built from is newer than it (a stale binary is a
/// different program).
///
/// # Errors
///
/// When cargo fails or is missing, or the binary is refused.
pub fn build_hazel(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--message-format=json",
            "-p",
            "hazel",
            "--bin",
            "hazel",
        ])
        .current_dir(root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building hazel failed ({})", out.status));
    }
    let artifact = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|msg| {
            let target = msg.get("target").and_then(|t| t.get("name"));
            msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact")
                && target.and_then(Json::as_str) == Some("hazel")
                && msg.get("executable").and_then(Json::as_str).is_some()
        })
        .ok_or("cargo reported no hazel executable")?;
    let hazel = PathBuf::from(
        artifact
            .get("executable")
            .and_then(Json::as_str)
            .unwrap_or(""),
    );
    if artifact
        .get("profile")
        .and_then(|p| p.get("debug_assertions"))
        != Some(&Json::Bool(false))
    {
        return Err(format!(
            "{} is not a release build: debug assertions are on",
            hazel.display()
        ));
    }
    vet_fresh(&hazel)?;
    Ok(hazel)
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// The files a make-style dep-info file lists as prerequisites.
fn dep_info_sources(dep_info: &str) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for line in dep_info.lines() {
        // `target: dep dep ...`, spaces inside a path escaped as `\ `.
        let Some((_, deps)) = line.split_once(": ") else {
            continue;
        };
        let mut path = String::new();
        let mut chars = deps.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '\\' if chars.peek() == Some(&' ') => path.push(chars.next().unwrap_or(' ')),
                c if c.is_whitespace() => {
                    if !path.is_empty() {
                        sources.push(PathBuf::from(std::mem::take(&mut path)));
                    }
                }
                c => path.push(c),
            }
        }
        if !path.is_empty() {
            sources.push(PathBuf::from(path));
        }
    }
    sources
}

/// Refuses a binary that is older than any source it was built from, as
/// listed in the dep-info file cargo writes next to it (`hazel.d`). Files
/// the binary does not depend on — tests, benches, other crates — are not
/// its sources and never make it stale.
///
/// # Errors
///
/// Names the reason the binary is refused.
pub fn vet_fresh(hazel: &Path) -> Result<(), String> {
    let built = mtime(hazel).ok_or_else(|| format!("no hazel binary at {}", hazel.display()))?;
    let dep_info_path = hazel.with_extension("d");
    let dep_info = std::fs::read_to_string(&dep_info_path)
        .map_err(|e| format!("cannot read {}: {e}", dep_info_path.display()))?;
    let sources = dep_info_sources(&dep_info);
    if sources.is_empty() {
        return Err(format!("{} lists no sources", dep_info_path.display()));
    }
    for source in sources {
        if mtime(&source).is_none_or(|changed| changed > built) {
            return Err(format!(
                "{} is older than its source {}; rebuild it",
                hazel.display(),
                source.display()
            ));
        }
    }
    Ok(())
}

/// A directory under the checkout, removed with everything in it when the
/// guard drops — on success, error return and panic alike.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `base/<name>-<pid>-<n>`, relative paths kept relative so
    /// socket paths stay short.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(base: &Path, name: &str) -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = base.join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// A running `hazel serve --uds` child. Dropping it terminates the child
/// gracefully (SIGTERM, then SIGKILL if it hangs), waits for it, and
/// removes its socket.
pub struct ServeProc {
    child: Option<Child>,
    stderr: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl ServeProc {
    /// Spawns the server on `socket` (journaling into `snapshot_dir` when
    /// given) and waits for its "listening" line. Returns the process and
    /// the seconds from spawn to that line.
    ///
    /// # Errors
    ///
    /// When the child cannot start or exits before listening.
    pub fn spawn(
        hazel: &Path,
        socket: &Path,
        snapshot_dir: Option<&Path>,
    ) -> Result<(ServeProc, f64), String> {
        let mut cmd = Command::new(hazel);
        cmd.arg("serve").arg("--uds").arg(socket);
        if let Some(dir) = snapshot_dir {
            cmd.arg("--snapshot-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", hazel.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut proc = ServeProc {
            child: Some(child),
            stderr: None,
            socket: socket.to_owned(),
        };
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("hazel serve exited before listening".into()),
                Ok(_) if line.contains("listening on") => break,
                Ok(_) => {}
            }
        }
        let secs = started.elapsed().as_secs_f64();
        // Keep draining stderr so the child never blocks on a full pipe
        // (it prints its metrics summary when it drains).
        proc.stderr = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader.into_inner(), &mut std::io::sink());
        }));
        Ok((proc, secs))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Drains the server with the `shutdown` op and waits for it to exit.
    ///
    /// # Errors
    ///
    /// When the shutdown is not acknowledged or the child does not exit
    /// cleanly in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to drain the server: {e}"))?;
        conn.write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("cannot send shutdown: {e}"))?;
        let mut reply = String::new();
        BufReader::new(&conn)
            .read_line(&mut reply)
            .map_err(|e| format!("no shutdown reply: {e}"))?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        // Drain-read until the server closes its end.
        let _ = conn.read_to_end(&mut Vec::new());
        self.wait()
    }

    fn wait(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("hazel serve did not exit after the drain".into());
                }
            }
        };
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("hazel serve exited with {status}"))
        }
    }

    /// Terminates the child with SIGTERM — a graceful drain — and waits.
    ///
    /// # Errors
    ///
    /// When the child does not exit cleanly in time.
    pub fn terminate(mut self) -> Result<(), String> {
        self.signal_term();
        self.wait()
    }

    fn signal_term(&self) {
        if let Some(child) = self.child.as_ref() {
            if let Ok(pid) = i32::try_from(child.id()) {
                // SAFETY: `kill(2)` takes plain integers and touches no
                // memory of this process; `pid` is our own live child.
                unsafe {
                    kill(pid, SIGTERM);
                }
            }
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if self.child.is_some() {
            self.signal_term();
            let _ = self.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_mtime(path: &Path, at: SystemTime) {
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(at))
            .expect("the file's mtime can be set");
    }

    #[test]
    fn dep_info_lists_every_source_with_escaped_spaces() {
        let sources = dep_info_sources("/t/hazel: /a/lib.rs /b/my\\ file.rs\n\n/a/lib.rs:\n");
        assert_eq!(
            sources,
            [PathBuf::from("/a/lib.rs"), PathBuf::from("/b/my file.rs")]
        );
    }

    #[test]
    fn only_a_newer_source_makes_the_binary_stale() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.servebench_tmp");
        let dir = TempDir::new(&scratch, "vet").expect("a temp dir");
        let bin = dir.path().join("hazel");
        let source = dir.path().join("lib.rs");
        let unrelated = dir.path().join("other_test.rs");
        for f in [&bin, &source, &unrelated] {
            std::fs::write(f, "").expect("a file");
        }
        std::fs::write(
            bin.with_extension("d"),
            format!("{}: {}\n", bin.display(), source.display()),
        )
        .expect("a dep-info file");
        let now = SystemTime::now();
        set_mtime(&source, now - Duration::from_secs(60));
        set_mtime(&bin, now - Duration::from_secs(30));
        set_mtime(&unrelated, now);
        assert_eq!(vet_fresh(&bin), Ok(()), "a newer non-source is ignored");
        set_mtime(&source, now);
        assert!(vet_fresh(&bin).is_err(), "a newer source is refused");
        std::fs::remove_file(&source).expect("the source is removed");
        assert!(vet_fresh(&bin).is_err(), "a missing source is refused");
    }
}
