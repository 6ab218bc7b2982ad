//! Output checks. Serial-path reports must match a reference
//! fingerprint bit for bit; simd-path state must stay within the
//! epsilon contract `tests/backend_determinism.rs` pins against serial.
//! Every failed check counts against the run; none is skipped.

use crate::gen::{Catalogue, Placement, PLACEMENTS};
use airshed_core::config::SimConfig;
use airshed_core::driver::{run_resumable_with, PlanLayouts};
use airshed_core::plan::replay_profile_with;
use airshed_core::state::SimState;
use airshed_core::{ChemLayout, ExecSpec, RunReport, WorkProfile};
use airshed_fabric::report_fingerprint;
use airshed_server::cache::NumericsKey;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Relative state tolerance of the simd contract (with the `1e-7`
/// floor on the denominator), as in `tests/backend_determinism.rs`.
pub const SIMD_REL_EPS: f64 = 0.05;

/// Entries of the NE state kept in a committed reference.
const NE_SAMPLES: usize = 512;

/// FNV-1a: a stable digest (the std hashers may change between
/// releases, and the digests are committed).
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

/// [`fnv`] over the bit patterns of `xs`.
fn digest(xs: impl IntoIterator<Item = f64>) -> u64 {
    fnv(xs.into_iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

fn within_eps(reference: f64, got: f64) -> bool {
    got.is_finite()
        && got >= 0.0
        && (reference - got).abs() / (reference.abs() + 1e-7) <= SIMD_REL_EPS
}

/// The parts of a profile the simd backend computes with scalar code on
/// state-independent inputs, which must therefore match serial exactly:
/// input, pretrans and output work, and every aerosol charge.
fn exact_digest(profile: &WorkProfile) -> u64 {
    digest(profile.hours.iter().flat_map(|h| {
        [h.input_work, h.pretrans_work, h.output_work]
            .into_iter()
            .chain(h.steps.iter().map(|s| s.aerosol))
    }))
}

/// Full simd-vs-serial check of one episode: every state entry within
/// the epsilon, and the scalar-path work exactly equal.
pub fn simd_matches_serial(
    serial: (&WorkProfile, &SimState),
    simd: (&WorkProfile, &SimState),
) -> Result<(), String> {
    if serial.1.conc.len() != simd.1.conc.len() {
        return Err("state shapes differ".to_string());
    }
    if let Some(i) =
        (0..serial.1.conc.len()).find(|&i| !within_eps(serial.1.conc[i], simd.1.conc[i]))
    {
        return Err(format!(
            "conc[{i}] = {} beyond the epsilon of serial {}",
            simd.1.conc[i], serial.1.conc[i]
        ));
    }
    if exact_digest(serial.0) != exact_digest(simd.0) {
        return Err("scalar-path work differs from serial".to_string());
    }
    Ok(())
}

/// A committed serial reference for one `ne_episode` input variant: the
/// exact-work digest plus a fixed sample of the final state. The whole
/// state (4.7 MB) is checked for finiteness and sign on every run; the
/// sample carries the epsilon comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct NeReference {
    pub exact: u64,
    pub len: usize,
    pub samples: Vec<(usize, f64)>,
}

impl NeReference {
    pub fn path(variant: usize) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("ne_variant{variant}.txt"))
    }

    pub fn capture(profile: &WorkProfile, state: &SimState) -> NeReference {
        let len = state.conc.len();
        let stride = (len / NE_SAMPLES).max(1);
        NeReference {
            exact: exact_digest(profile),
            len,
            samples: (0..len.min(NE_SAMPLES))
                .map(|i| i * stride + (i * 7) % stride)
                .map(|i| (i, state.conc[i]))
                .collect(),
        }
    }

    pub fn render(&self) -> String {
        let mut s = format!("exact {:016x}\nlen {}\n", self.exact, self.len);
        for (i, v) in &self.samples {
            s.push_str(&format!("{i} {:016x}\n", v.to_bits()));
        }
        s
    }

    pub fn parse(text: &str) -> Result<NeReference, String> {
        let mut lines = text.lines();
        let mut field = |name: &str| {
            lines
                .next()
                .and_then(|l| l.strip_prefix(name))
                .map(|v| v.trim().to_string())
                .ok_or_else(|| format!("reference: missing {name}"))
        };
        let exact = u64::from_str_radix(&field("exact")?, 16).map_err(|e| e.to_string())?;
        let len = field("len")?.parse().map_err(|e| format!("len: {e}"))?;
        let samples = lines
            .map(|l| {
                let (i, bits) = l.split_once(' ').ok_or("reference: bad sample")?;
                let i = i.parse::<usize>().map_err(|e| e.to_string())?;
                let bits = u64::from_str_radix(bits, 16).map_err(|e| e.to_string())?;
                Ok((i, f64::from_bits(bits)))
            })
            .collect::<Result<_, String>>()?;
        Ok(NeReference {
            exact,
            len,
            samples,
        })
    }

    pub fn load(variant: usize) -> Result<NeReference, String> {
        let path = NeReference::path(variant);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        NeReference::parse(&text)
    }

    /// The simd contract against this reference.
    pub fn check(&self, profile: &WorkProfile, state: &SimState) -> Result<(), String> {
        if state.conc.len() != self.len {
            return Err(format!(
                "state has {} entries, reference {}",
                state.conc.len(),
                self.len
            ));
        }
        if let Some(i) = state.conc.iter().position(|v| !v.is_finite() || *v < 0.0) {
            return Err(format!("conc[{i}] = {} is not physical", state.conc[i]));
        }
        if let Some((i, r)) = self
            .samples
            .iter()
            .find(|(i, r)| !within_eps(*r, state.conc[*i]))
        {
            return Err(format!(
                "conc[{i}] = {} beyond the epsilon of reference {r}",
                state.conc[*i]
            ));
        }
        if exact_digest(profile) != self.exact {
            return Err("scalar-path work differs from the reference".to_string());
        }
        Ok(())
    }
}

/// Serial reference profiles of the distinct numerics among `configs`,
/// one direct driver run each, computed on `threads` threads.
pub fn reference_profiles<'a>(
    configs: impl IntoIterator<Item = &'a SimConfig>,
    threads: usize,
) -> HashMap<NumericsKey, WorkProfile> {
    let mut todo: HashMap<NumericsKey, SimConfig> = HashMap::new();
    for c in configs {
        todo.entry(NumericsKey::of(c)).or_insert_with(|| c.clone());
    }
    let queue = Mutex::new(todo.into_iter().collect::<Vec<_>>());
    let done = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let Some((key, config)) = queue
                    .lock()
                    .expect("a thread panicked while holding the lock")
                    .pop()
                else {
                    return;
                };
                let (_, profile, _) = run_resumable_with(&config, None, ExecSpec::serial());
                done.lock()
                    .expect("a thread panicked while holding the lock")
                    .insert(key, profile);
            });
        }
    });
    done.into_inner()
        .expect("a thread panicked while holding the lock")
}

fn fingerprint_digest(report: &RunReport) -> u64 {
    fnv(report_fingerprint(report).bytes())
}

/// The committed reference fingerprints of a [`Catalogue`]: for entry
/// `i`, line `i` holds the digest of the serial reference report's
/// fingerprint on each of the [`PLACEMENTS`] placements, in
/// [`Placement::nth`] order.
pub struct CatalogueRefs {
    by_key: HashMap<NumericsKey, Vec<u64>>,
}

impl CatalogueRefs {
    pub fn path(cat: &Catalogue) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{}_catalogue.txt", cat.name))
    }

    pub fn load(cat: &Catalogue) -> Result<CatalogueRefs, String> {
        let path = CatalogueRefs::path(cat);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut by_key = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let digests = line
                .split_whitespace()
                .map(|h| u64::from_str_radix(h, 16).map_err(|e| format!("{}: {e}", path.display())))
                .collect::<Result<Vec<_>, _>>()?;
            if digests.len() != PLACEMENTS {
                return Err(format!(
                    "{} line {}: expected {PLACEMENTS} digests",
                    path.display(),
                    i + 1
                ));
            }
            by_key.insert(NumericsKey::of(&cat.entry(i)), digests);
        }
        if by_key.len() != cat.len {
            return Err(format!(
                "{} has {} entries, expected {}",
                path.display(),
                by_key.len(),
                cat.len
            ));
        }
        Ok(CatalogueRefs { by_key })
    }

    /// Simulate every entry serially and render the reference file.
    pub fn render(cat: &Catalogue, threads: usize) -> String {
        let entries: Vec<SimConfig> = (0..cat.len).map(|i| cat.entry(i)).collect();
        let profiles = reference_profiles(&entries, threads);
        let mut out = String::new();
        for config in &entries {
            let profile = &profiles[&NumericsKey::of(config)];
            let line: Vec<String> = (0..PLACEMENTS)
                .map(|j| {
                    let p = Placement::nth(j);
                    let report =
                        replay_profile_with(profile, p.machine, p.p, PlanLayouts::chem(p.layout));
                    format!("{:016x}", fingerprint_digest(&report))
                })
                .collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }

    /// The committed digest for this request, if the catalogue has it.
    fn digest(&self, config: &SimConfig, layout: ChemLayout) -> Option<u64> {
        let row = self.by_key.get(&NumericsKey::of(config))?;
        Placement::index_of(config, layout).map(|j| row[j])
    }
}

/// Bit-for-bit references for serial-path reports: the committed
/// catalogue digest where there is one, otherwise a serial simulation
/// of the request's numerics made after the measured window.
pub struct References {
    catalogue: CatalogueRefs,
    profiles: HashMap<NumericsKey, WorkProfile>,
}

impl References {
    pub fn new<'a>(
        catalogue: CatalogueRefs,
        configs: impl IntoIterator<Item = &'a (SimConfig, ChemLayout)>,
        threads: usize,
    ) -> References {
        let uncovered: Vec<&SimConfig> = configs
            .into_iter()
            .filter(|(c, l)| catalogue.digest(c, *l).is_none())
            .map(|(c, _)| c)
            .collect();
        References {
            profiles: reference_profiles(uncovered, threads),
            catalogue,
        }
    }

    /// Requests whose reference had to be simulated.
    pub fn simulated(&self) -> usize {
        self.profiles.len()
    }

    /// Bit-for-bit fingerprint check of one serial-path report.
    pub fn check(
        &self,
        config: &SimConfig,
        layout: ChemLayout,
        got: &RunReport,
    ) -> Result<(), String> {
        let want = match self.catalogue.digest(config, layout) {
            Some(d) => d,
            None => {
                let profile = &self.profiles[&NumericsKey::of(config)];
                fingerprint_digest(&replay_profile_with(
                    profile,
                    config.machine,
                    config.p,
                    PlanLayouts::chem(layout),
                ))
            }
        };
        if fingerprint_digest(got) == want {
            Ok(())
        } else {
            Err(format!("fingerprint mismatch: {}", report_fingerprint(got)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::config::DatasetChoice;

    fn small() -> SimConfig {
        let mut c = SimConfig::test_tiny(4, 1);
        c.dataset = DatasetChoice::Tiny(16);
        c
    }

    fn flip_a_bit(report: &mut RunReport) {
        report.summaries[0].max_o3 = f64::from_bits(report.summaries[0].max_o3.to_bits() ^ 1);
    }

    #[test]
    fn a_planted_fingerprint_mismatch_is_caught() {
        let placement = Placement::nth(5);
        let mut listed = crate::gen::FABRIC.entry(3);
        placement.apply(&mut listed);
        let mut unlisted = small();
        placement.apply(&mut unlisted);
        let jobs = [
            (listed.clone(), placement.layout),
            (unlisted.clone(), placement.layout),
        ];
        let refs = References::new(CatalogueRefs::load(&crate::gen::FABRIC).unwrap(), &jobs, 1);
        assert_eq!(
            refs.simulated(),
            1,
            "only the off-catalogue job is simulated"
        );
        for config in [&listed, &unlisted] {
            let (_, profile, _) = run_resumable_with(config, None, ExecSpec::serial());
            let mut report = replay_profile_with(
                &profile,
                config.machine,
                config.p,
                PlanLayouts::chem(placement.layout),
            );
            assert!(refs.check(config, placement.layout, &report).is_ok());
            flip_a_bit(&mut report);
            assert!(refs.check(config, placement.layout, &report).is_err());
        }
    }

    #[test]
    fn ne_reference_round_trips_and_catches_drift() {
        let config = small();
        let (_, profile, ckpt) = run_resumable_with(&config, None, ExecSpec::serial());
        let reference = NeReference::capture(&profile, &ckpt.state);
        assert_eq!(NeReference::parse(&reference.render()).unwrap(), reference);
        assert!(reference.check(&profile, &ckpt.state).is_ok());
        // The simd run of the same input is within the epsilon.
        let (_, simd_profile, simd) = run_resumable_with(&config, None, ExecSpec::simd(2));
        assert!(reference.check(&simd_profile, &simd.state).is_ok());
        assert!(simd_matches_serial((&profile, &ckpt.state), (&simd_profile, &simd.state)).is_ok());
        // A sampled entry pushed past the epsilon fails.
        let (i, _) = reference.samples[reference.samples.len() / 2];
        let mut bad = ckpt.state.clone();
        bad.conc[i] = bad.conc[i] * 1.2 + 1e-6;
        assert!(reference.check(&profile, &bad).is_err());
        assert!(simd_matches_serial((&profile, &ckpt.state), (&profile, &bad)).is_err());
        // So does a NaN anywhere, sampled or not.
        let mut nan = ckpt.state.clone();
        nan.conc[1] = f64::NAN;
        assert!(reference.check(&profile, &nan).is_err());
    }
}
