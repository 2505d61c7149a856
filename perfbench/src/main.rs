//! `ltt-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--bless` instead rewrites the golden verdict files from one pass of
//! the current code.

use ltt_perfbench::library::{Kind, Library};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bless") {
        return bless();
    }
    let value = |flag: &str| -> Option<&str> {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).map(String::as_str)
    };
    let parsed = (|| -> Option<(&str, u64, f64, bool)> {
        Some((
            value("--workload")?,
            value("--seed")?.parse().ok()?,
            value("--seconds")?
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0)?,
            match value("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        ))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!("usage: ltt-perfbench --workload NAME --seed N --seconds S [--trace 0|1]");
        return ExitCode::from(2);
    };
    if pin_to_one_cpu().is_none() {
        eprintln!("note: could not pin to one CPU; figures will be noisier");
    }
    match ltt_perfbench::run(workload, seed, seconds, trace) {
        Ok(outcome) => {
            println!("{}", ltt_perfbench::report::result_line(&outcome));
            if outcome.failed > 0 {
                eprintln!(
                    "{workload}: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `golden/<workload>.txt` for the narrowing workloads.
fn bless() -> ExitCode {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for kind in [Kind::Table1, Kind::C6288] {
        let pass = Library::setup(kind, 0).run_pass(false);
        let mut text = pass.lines().join("\n");
        text.push('\n');
        let path = dir.join(format!("{}.txt", kind.name()));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Pins the process to the last CPU it may run on, so every thread it
/// starts later shares that CPU. The closed-loop client, the daemon's
/// reader and its one worker hand each request along a chain with no
/// parallel work; left unpinned, where the scheduler happens to place the
/// three threads changed served throughput by 1.5× between identical runs.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, and
    // `size` is exactly the byte length of the array we own.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`, which is exactly
    // the byte length of the array we own.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}
