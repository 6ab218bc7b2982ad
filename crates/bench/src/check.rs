//! The bench regression gate: compare a fresh `BENCH_kernels.json`
//! against the committed `BENCH_baseline.json` with per-kernel,
//! noise-aware thresholds.
//!
//! The two documents are flattened to dotted keys
//! (`la_hour.serial_s`, `la_hour_phase_median_us.chemistry`, ...) by a
//! minimal hand-rolled JSON parser (the vendored serde shim is a no-op,
//! and the bench documents are objects-of-objects-of-numbers by
//! construction). A gated key fails when
//!
//! ```text
//! current > baseline * rel_limit + abs_slack
//! ```
//!
//! — the multiplicative limit absorbs proportional noise (machine load,
//! CPU frequency), the absolute slack keeps microsecond-scale medians
//! from tripping on scheduler jitter. Derived ratios (speedups,
//! throughput scaling) are deliberately ungated: they are quotients of
//! gated quantities and would double-count regressions. The two
//! documents must come from the same host: when `host_threads`,
//! `host_physical_threads` or any `cpu_features` flag differs, the
//! comparison is refused — numbers from another host are neither a
//! pass nor a regression, and the fix is to re-baseline on this one.

use std::collections::BTreeMap;
use std::fmt;

/// Flatten a bench JSON document into dotted-key/number pairs.
/// Non-numeric leaves are rejected — the bench writers only emit
/// numbers, so anything else means the document is not a bench report.
pub fn flatten_bench_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    p.skip_ws();
    p.object(&mut String::new(), &mut out)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                // Bench keys never need escapes; reject rather than
                // mis-parse.
                b'\\' => return Err(format!("escape in key at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn object(
        &mut self,
        prefix: &mut String,
        out: &mut BTreeMap<String, f64>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let saved = prefix.len();
            if !prefix.is_empty() {
                prefix.push('.');
            }
            prefix.push_str(&key);
            match self.bytes.get(self.pos) {
                Some(b'{') => self.object(prefix, out)?,
                Some(_) => {
                    let v = self.number()?;
                    out.insert(prefix.clone(), v);
                }
                None => return Err("unexpected end of document".into()),
            }
            prefix.truncate(saved);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|&c| c as char)
                    ))
                }
            }
        }
    }
}

/// The gate for one key class: fail when
/// `current > baseline * rel_limit + abs_slack`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub rel_limit: f64,
    pub abs_slack: f64,
}

/// The per-kernel thresholds. Tighter for the seconds-scale end-to-end
/// numbers (proportional noise dominates), looser with an absolute
/// floor for the microsecond-scale span medians.
pub fn gate_for(key: &str) -> Option<Gate> {
    if key == "la_hour.serial_s" || key == "la_hour.rayon4_s" || key == "la_hour.simd4_s" {
        return Some(Gate {
            rel_limit: 1.35,
            abs_slack: 0.5,
        });
    }
    // All three per-backend phase-median groups share the span gate:
    // la_hour_phase_median_us (rayon), ..._serial and ..._simd.
    if key.starts_with("la_hour_phase_median_us") {
        return Some(Gate {
            rel_limit: 1.6,
            abs_slack: 1000.0,
        });
    }
    if key.starts_with("workspace_hoisting.") && key.ends_with("_s") {
        return Some(Gate {
            rel_limit: 1.8,
            abs_slack: 1e-4,
        });
    }
    None
}

/// One gated key that exceeded its threshold.
#[derive(Debug, Clone)]
pub struct Regression {
    pub key: String,
    pub baseline: f64,
    pub current: f64,
    pub limit: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} vs baseline {} (limit {}, {:+.1}%)",
            self.key,
            self.current,
            self.baseline,
            self.limit,
            100.0 * (self.current / self.baseline - 1.0)
        )
    }
}

/// The outcome of one baseline/current comparison.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Keys gated and within limits.
    pub passed: usize,
    /// Keys present in exactly one document (reported, not failing —
    /// adding a benchmark must not break the gate retroactively).
    pub unmatched: Vec<String>,
    pub regressions: Vec<Regression>,
    /// The comparison was refused because the documents came from
    /// different hosts; nothing was gated.
    pub host_mismatch: Option<HostMismatch>,
}

/// The first host-identity field on which baseline and current differ
/// (`None` when the field is absent from that document).
#[derive(Debug, Clone, PartialEq)]
pub struct HostMismatch {
    pub key: String,
    pub baseline: Option<f64>,
    pub current: Option<f64>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.host_mismatch.is_none() && self.regressions.is_empty()
    }
}

/// Keys that identify the host a bench document was measured on.
fn is_host_key(key: &str) -> bool {
    key == "host_threads" || key == "host_physical_threads" || key.starts_with("cpu_features.")
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(m) = &self.host_mismatch {
            let show = |v: Option<f64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
            return writeln!(
                f,
                "bench check: REFUSED — host field `{}` differs (baseline {}, current {}); \
                 numbers from different hosts are not comparable, re-baseline on this host",
                m.key,
                show(m.baseline),
                show(m.current)
            );
        }
        for r in &self.regressions {
            writeln!(f, "REGRESSION {r}")?;
        }
        for k in &self.unmatched {
            writeln!(f, "note: key {k} present in only one document")?;
        }
        writeln!(
            f,
            "bench check: {} gated keys ok, {} regressions",
            self.passed,
            self.regressions.len()
        )
    }
}

/// Compare flattened current numbers against the baseline.
pub fn compare(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> CheckReport {
    let host_mismatch = baseline
        .keys()
        .chain(current.keys())
        .filter(|k| is_host_key(k))
        .find(|&k| baseline.get(k) != current.get(k))
        .map(|k| HostMismatch {
            key: k.clone(),
            baseline: baseline.get(k).copied(),
            current: current.get(k).copied(),
        });
    if host_mismatch.is_some() {
        return CheckReport {
            passed: 0,
            unmatched: Vec::new(),
            regressions: Vec::new(),
            host_mismatch,
        };
    }
    let mut passed = 0;
    let mut regressions = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for (key, &base) in baseline {
        let Some(&cur) = current.get(key) else {
            unmatched.push(key.clone());
            continue;
        };
        let Some(gate) = gate_for(key) else { continue };
        let limit = base * gate.rel_limit + gate.abs_slack;
        if cur > limit {
            regressions.push(Regression {
                key: key.clone(),
                baseline: base,
                current: cur,
                limit,
            });
        } else {
            passed += 1;
        }
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            unmatched.push(key.clone());
        }
    }
    CheckReport {
        passed,
        unmatched,
        regressions,
        host_mismatch: None,
    }
}

/// Apply `--inject key=factor` perturbations to a flattened document —
/// the gate's own test harness (demonstrates that an injected slowdown
/// trips the gate without re-measuring anything).
pub fn inject(values: &mut BTreeMap<String, f64>, spec: &str) -> Result<(), String> {
    let (key, factor) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad inject spec '{spec}' (want key=factor)"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|e| format!("bad inject factor in '{spec}': {e}"))?;
    match values.get_mut(key) {
        Some(v) => {
            *v *= factor;
            Ok(())
        }
        None => Err(format!("inject key '{key}' not present")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "host_threads": 1,
  "host_physical_threads": 1,
  "cpu_features": { "avx2": 1, "fma": 1 },
  "la_hour": { "serial_s": 6.0, "rayon4_s": 6.1, "simd4_s": 3.1, "speedup_rayon4": 0.98 },
  "la_hour_phase_median_us": { "chemistry": 1000000.0, "transport": 42000.0, "aerosol": 207.4 },
  "la_hour_phase_median_us_simd": { "chemistry": 400000.0, "transport": 30000.0 },
  "workspace_hoisting": { "yb_cell_reused_s": 0.00033, "yb_speedup": 1.03 }
}"#;

    #[test]
    fn flattens_nested_objects_to_dotted_keys() {
        let m = flatten_bench_json(DOC).unwrap();
        assert_eq!(m["host_threads"], 1.0);
        assert_eq!(m["la_hour.serial_s"], 6.0);
        assert_eq!(m["la_hour_phase_median_us.chemistry"], 1_000_000.0);
        assert_eq!(m["workspace_hoisting.yb_speedup"], 1.03);
        assert_eq!(m["cpu_features.fma"], 1.0);
        assert_eq!(m["la_hour_phase_median_us_simd.chemistry"], 400_000.0);
        assert_eq!(m.len(), 15);
        // Real bench output round-trips too.
        assert!(flatten_bench_json("{\n}\n").unwrap().is_empty());
        assert!(flatten_bench_json("{ \"a\": [1] }").is_err());
        assert!(flatten_bench_json("{ \"a\": 1 } trailing").is_err());
    }

    #[test]
    fn identical_documents_pass() {
        let base = flatten_bench_json(DOC).unwrap();
        let report = compare(&base, &base.clone());
        assert!(report.ok());
        assert!(report.passed >= 6, "gated keys: {}", report.passed);
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn injected_2x_chemistry_slowdown_fails_the_gate() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        inject(&mut cur, "la_hour_phase_median_us.chemistry=2.0").unwrap();
        let report = compare(&base, &cur);
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].key,
            "la_hour_phase_median_us.chemistry"
        );
        let text = report.to_string();
        assert!(text.contains("REGRESSION"));
    }

    #[test]
    fn simd_keys_are_gated_too() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        inject(&mut cur, "la_hour.simd4_s=2.0").unwrap();
        inject(&mut cur, "la_hour_phase_median_us_simd.chemistry=2.0").unwrap();
        let report = compare(&base, &cur);
        assert_eq!(report.regressions.len(), 2);
    }

    #[test]
    fn small_noise_and_derived_ratios_do_not_trip() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        // 20% noise on a gated key: within the 1.35x/1.6x limits.
        inject(&mut cur, "la_hour.serial_s=1.2").unwrap();
        inject(&mut cur, "la_hour_phase_median_us.transport=1.2").unwrap();
        // A collapsed speedup ratio is ungated by design.
        inject(&mut cur, "la_hour.speedup_rayon4=0.1").unwrap();
        // Tiny absolute change on a µs-scale median: absorbed by slack.
        *cur.get_mut("la_hour_phase_median_us.aerosol").unwrap() += 800.0;
        assert!(compare(&base, &cur).ok());
    }

    #[test]
    fn host_mismatch_refuses_comparison() {
        let base = flatten_bench_json(DOC).unwrap();
        // Each host-identity field alone refuses, even with timings that
        // would pass or fail the gate, and the message names the field.
        for (field, spec) in [
            ("host_threads", "host_threads=8.0"),
            ("host_physical_threads", "host_physical_threads=2.0"),
            ("cpu_features.fma", "cpu_features.fma=0.0"),
        ] {
            for timing in [
                "la_hour.serial_s=1.0",
                "la_hour_phase_median_us.chemistry=10.0",
            ] {
                let mut cur = base.clone();
                inject(&mut cur, spec).unwrap();
                inject(&mut cur, timing).unwrap();
                let report = compare(&base, &cur);
                assert_eq!(report.host_mismatch.as_ref().unwrap().key, field);
                assert!(!report.ok(), "{field}: cross-host numbers must be refused");
                let text = report.to_string();
                assert!(text.contains("REFUSED") && text.contains(field), "{text}");
            }
        }
        // A feature flag present on one host only is a difference too.
        let mut cur = base.clone();
        cur.insert("cpu_features.avx512f".into(), 1.0);
        let m = compare(&base, &cur).host_mismatch.unwrap();
        assert_eq!((m.baseline, m.current), (None, Some(1.0)));
    }

    #[test]
    fn new_and_removed_keys_are_noted_not_failed() {
        let base = flatten_bench_json(DOC).unwrap();
        let mut cur = base.clone();
        cur.remove("la_hour_phase_median_us.aerosol");
        cur.insert("la_hour_phase_median_us.charge_hour".into(), 20.0);
        let report = compare(&base, &cur);
        assert!(report.ok());
        assert_eq!(report.unmatched.len(), 2);
    }

    #[test]
    fn inject_rejects_bad_specs() {
        let mut m = flatten_bench_json(DOC).unwrap();
        assert!(inject(&mut m, "no-equals").is_err());
        assert!(inject(&mut m, "la_hour.serial_s=abc").is_err());
        assert!(inject(&mut m, "missing.key=2.0").is_err());
    }
}
