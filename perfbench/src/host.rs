//! Host identity, process memory, and the compare step over captured
//! results. A result is only comparable with another taken on the same
//! host: same CPU model, same `nproc`, same SIMD features.

use airshed_core::obs::dist::Json;
use std::collections::BTreeMap;

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostId {
    pub cpu: String,
    pub nproc: usize,
    pub simd: String,
}

impl HostId {
    pub fn detect() -> HostId {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        HostId {
            cpu,
            nproc: airshed_hpf::host::available_threads(),
            simd: airshed_simd::cpu_features().join("+"),
        }
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One run's result, read back from its captured standard output: the
/// detail line gives host, workload and trace mode, the last line the
/// metrics with their units.
#[derive(Debug, Clone, PartialEq)]
pub struct Captured {
    pub host: HostId,
    pub workload: String,
    pub trace: String,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Captured {
    pub fn parse(text: &str) -> Result<Captured, String> {
        let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
        let result = Json::parse(lines.next().ok_or("empty capture")?)
            .map_err(|e| format!("last line: {e}"))?;
        let detail = lines
            .map(Json::parse)
            .find_map(|j| j.ok().and_then(|j| j.get("detail").cloned()))
            .ok_or("no detail line before the result")?;
        let field = |k: &str| {
            detail
                .get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("detail has no {k}"))
        };
        let Some(Json::Obj(entries)) = result.get("metrics") else {
            return Err("last line has no metrics object".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in entries {
            let value = m.get("value").and_then(Json::as_num);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name} lacks a value or unit"));
            };
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Captured {
            host: HostId {
                cpu: field("host_cpu")?,
                nproc: field("host_nproc")?
                    .parse()
                    .map_err(|e| format!("host_nproc: {e}"))?,
                simd: field("host_simd")?,
            },
            workload: field("workload")?,
            trace: field("trace")?,
            metrics,
        })
    }
}

/// Compare `new` against `base`: one line per shared metric with the
/// relative change. Refuses results from different hosts, workloads or
/// trace modes.
pub fn compare(base: &Captured, new: &Captured) -> Result<String, String> {
    if base.host != new.host {
        return Err(format!(
            "refusing to compare results from different hosts:\n  base: {:?}\n  new:  {:?}",
            base.host, new.host
        ));
    }
    if base.workload != new.workload {
        return Err(format!(
            "refusing to compare different workloads: {} vs {}",
            base.workload, new.workload
        ));
    }
    if base.trace != new.trace {
        return Err(format!(
            "refusing to compare a run with trace={} against one with trace={}",
            base.trace, new.trace
        ));
    }
    let mut out = format!(
        "workload {} on {} x{}\n",
        new.workload, new.host.cpu, new.host.nproc
    );
    for (name, (b, unit)) in &base.metrics {
        if let Some((n, _)) = new.metrics.get(name) {
            out.push_str(&format!(
                "{name:<28} {b:>14.6} -> {n:>14.6} {unit:<6} {:+.2}%\n",
                100.0 * (n - b) / b
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two last lines a run prints.
    fn capture(host: &HostId, trace: bool) -> String {
        format!(
            "{{\"detail\": {{\"workload\": \"fabric_batch\", \"trace\": \"{trace}\", \
             \"host_cpu\": \"{}\", \"host_nproc\": \"{}\", \"host_simd\": \"{}\"}}}}\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {{\"latency_p50_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}}}\n",
            host.cpu, host.nproc, host.simd
        )
    }

    fn parsed(host: &HostId, trace: bool) -> Captured {
        Captured::parse(&capture(host, trace)).unwrap()
    }

    #[test]
    fn capture_parses_host_and_metrics() {
        let host = HostId::detect();
        let c = parsed(&host, false);
        assert_eq!(c.host, host);
        assert_eq!(
            (c.workload.as_str(), c.trace.as_str()),
            ("fabric_batch", "false")
        );
        assert_eq!(c.metrics["latency_p50_s"], (0.5, "s".to_string()));
    }

    #[test]
    fn compare_refuses_a_different_host_or_trace_mode() {
        let here = HostId::detect();
        let mut there = here.clone();
        there.nproc += 1;
        assert!(compare(&parsed(&here, false), &parsed(&there, false)).is_err());
        let mut other_cpu = here.clone();
        other_cpu.simd.push_str("+avx512f");
        assert!(compare(&parsed(&here, false), &parsed(&other_cpu, false)).is_err());
        assert!(compare(&parsed(&here, false), &parsed(&here, true)).is_err());
        assert!(compare(&parsed(&here, false), &parsed(&here, false)).is_ok());
    }
}
