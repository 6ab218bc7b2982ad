//! The airshed benchmark: end-to-end metrics with tracing off, or the
//! per-layer metrics of a traced run. See `README.md` beside this crate.
//!
//! ```text
//! airshed-perfbench --workload <ne_episode|scenario_service|fabric_batch>
//!                   --seed N --seconds S --trace 0|1
//! airshed-perfbench compare BASE NEW
//! airshed-perfbench write-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the run's details (host identity, sample counts, shares with
//! their bases).

mod check;
mod gen;
mod host;
mod layers;
mod stats;
mod workloads;

use host::{Captured, HostId};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["ne_episode", "scenario_service", "fabric_batch"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(24.0),
        trace,
    })
}

/// `{"value": v, "unit": u}` entries keyed by metric name.
fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<(), String> {
    let host = HostId::detect();
    let (metrics, notes, attempted, failed) = if args.trace {
        let traced = layers::traced_run(args.seed)?;
        (
            traced.metrics,
            traced.notes,
            traced.attempted,
            traced.failed,
        )
    } else {
        let m = match args.workload.as_str() {
            "ne_episode" => workloads::ne_episode(args.seed, args.seconds)?,
            "scenario_service" => workloads::scenario_service(args.seed, args.seconds)?,
            _ => workloads::fabric_batch(args.seed, args.seconds)?,
        };
        let metrics = m
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect();
        (metrics, m.notes, m.attempted, m.failed)
    };
    if let Some(bad) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {} was not measured", bad.0));
    }
    let mut detail = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("host_cpu".to_string(), host.cpu),
        ("host_nproc".to_string(), host.nproc.to_string()),
        ("host_simd".to_string(), host.simd),
    ];
    detail.extend(notes);
    let detail: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );
    Ok(())
}

fn compare(base: &str, new: &str) -> Result<(), String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| Captured::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    print!("{}", host::compare(&read(base)?, &read(new)?)?);
    Ok(())
}

/// Regenerate every committed serial reference: the service and fabric
/// catalogues and the NE variants.
fn write_reference() -> Result<(), String> {
    for cat in [gen::SERVICE, gen::FABRIC] {
        eprintln!("{} catalogue: {} serial runs", cat.name, cat.len);
        let path = check::CatalogueRefs::path(&cat);
        std::fs::create_dir_all(path.parent().expect("reference dir"))
            .map_err(|e| e.to_string())?;
        std::fs::write(
            &path,
            check::CatalogueRefs::render(&cat, workloads::nproc()),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for variant in 0..gen::NE_VARIANTS.len() {
        let config = gen::ne_config(variant);
        eprintln!(
            "serial NE hour, variant {variant} (emission scale {})",
            config.emission_scale
        );
        let (_, profile, ckpt) = airshed_core::driver::run_resumable_with(
            &config,
            None,
            airshed_core::ExecSpec::serial(),
        );
        let path = check::NeReference::path(variant);
        std::fs::create_dir_all(path.parent().expect("reference dir"))
            .map_err(|e| e.to_string())?;
        std::fs::write(
            &path,
            check::NeReference::capture(&profile, &ckpt.state).render(),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        Some("write-reference") if argv.len() == 1 => write_reference(),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("airshed-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
