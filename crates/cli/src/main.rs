//! `ltt` — the command-line timing verifier.
//!
//! Commands: `info`, `check`, `delay`, `patch`, `report`, `convert`,
//! `simulate` and `explain` read a netlist (ISCAS `.bench` or structural
//! Verilog); `serve`, `router` and `client` run and drive the daemon.
//! `ltt help` lists every command and every flag with the commands that
//! read it; a command rejects any other flag.
//!
//! Exit codes: `0` no violation, `1` violation found, `2` incomplete
//! (budget exhausted / search abandoned / a check failed), `3` usage or
//! input error.

use cli::run;
use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(status) => ExitCode::from(status.exit_code()),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}
