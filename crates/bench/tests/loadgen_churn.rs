//! `loadgen --churn` against a daemon whose registry is too small for the
//! load mix: evicted circuits answer `unknown_circuit`, which loadgen must
//! repair by re-registering and retrying — counted as re-registrations,
//! never as failures.

use ltt_serve::{ServeConfig, Server};
use std::process::Command;

#[test]
fn churn_reregisters_evicted_circuits_instead_of_failing() {
    // Three variants plus a patched revision per churned request, against
    // a registry of two: every client evicts circuits it still uses.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        registry_cap: 2,
        ..Default::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("bound daemon").to_string();
    let daemon = std::thread::spawn(move || server.run());

    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", &addr, "--clients", "2", "--requests", "30"])
        .args(["--circuits", "3", "--churn", "4", "--verify"])
        .output()
        .expect("run loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadgen failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains(" 0 failed,"), "{stdout}");
    assert!(stdout.contains(" 0 mismatched,"), "{stdout}");
    let reregistered: u64 = stdout
        .split(" re-registered")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no re-registration count in:\n{stdout}"));
    assert!(reregistered > 0, "the registry never evicted:\n{stdout}");

    // loadgen shuts the external daemon down once it is done.
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
}
