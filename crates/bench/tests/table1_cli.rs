//! The `table1` command line: `--help` prints the usage and exits 0, and
//! an argument it does not parse prints the usage and exits 3 — neither
//! starts the suite, which takes minutes.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Waits for `child`, killing it (and failing) if it runs past `limit`.
fn wait_within(mut child: Child, limit: Duration) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll table1") {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("table1 still running after {limit:?}: it started the suite");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn table1(args: &[&str]) -> ExitStatus {
    let child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("run table1");
    wait_within(child, Duration::from_secs(20))
}

#[test]
fn help_prints_usage_and_exits_0() {
    assert_eq!(table1(&["--help"]).code(), Some(0));
}

#[test]
fn unknown_flags_and_bad_values_exit_3() {
    assert_eq!(table1(&["--quik"]).code(), Some(3));
    assert_eq!(table1(&["--quick", "--jobs", "x"]).code(), Some(3));
    assert_eq!(table1(&["--quick", "--engine", "dpll"]).code(), Some(3));
    assert_eq!(table1(&["--quick", "--trace"]).code(), Some(3));
}
