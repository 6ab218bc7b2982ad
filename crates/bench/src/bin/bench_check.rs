//! The bench regression gate CLI:
//!
//! ```text
//! bench_check <baseline.json> <current.json> [--inject key=factor]...
//! ```
//!
//! Exits 0 when every gated kernel median in `current` is within its
//! noise-aware threshold of `baseline` (see `airshed_bench::check`),
//! 1 on a regression, 2 on usage/parse errors and when the documents
//! come from different hosts (the comparison is refused, naming the
//! differing host field). `--inject` multiplies a
//! key in the *current* document before comparing — the gate's own
//! negative test (`scripts/ci.sh` proves a 2x chemistry slowdown fails
//! without re-measuring anything).

use airshed_bench::check::{compare, flatten_bench_json, inject};
use std::process::ExitCode;

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut injections = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--inject" => injections.push(
                it.next()
                    .ok_or_else(|| "--inject needs key=factor".to_string())?
                    .clone(),
            ),
            "--help" | "-h" => {
                println!(
                    "usage: bench_check <baseline.json> <current.json> [--inject key=factor]..."
                );
                return Ok(ExitCode::SUCCESS);
            }
            _ => paths.push(a.clone()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err(
            "usage: bench_check <baseline.json> <current.json> [--inject key=factor]...".into(),
        );
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| flatten_bench_json(&text).map_err(|e| format!("parsing {path}: {e}")))
    };
    let baseline = read(baseline_path)?;
    let mut current = read(current_path)?;
    for spec in &injections {
        inject(&mut current, spec)?;
        eprintln!("bench_check: injected {spec} into {current_path}");
    }
    let report = compare(&baseline, &current);
    print!("{report}");
    Ok(if report.host_mismatch.is_some() {
        ExitCode::from(2)
    } else if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
