//! The repository benchmark: four workloads over the paper's pipeline and
//! the serving layer, each checked for correct answers, printing its
//! end-to-end metrics (or, traced, its per-layer metrics) as one JSON
//! line. See `README.md` in this directory.

pub mod library;
pub mod report;
pub mod served;

use report::Outcome;

/// Runs workload `name` for `seconds` from `seed`; `trace` selects the
/// per-layer run.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    use library::Kind;
    let kind = match name {
        "table1" => Kind::Table1,
        "c6288" => Kind::C6288,
        "sat" => Kind::Sat,
        "serve_eco" => {
            return served::run(seed, seconds, trace).map_err(|e| format!("serve_eco: {e}"))
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(library::run(kind, seed, seconds, trace))
}
