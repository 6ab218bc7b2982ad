//! Seeded input generators. Every input a workload submits comes from
//! here, as a pure function of `--seed`; the program under test sees
//! only the generated configurations.

use airshed_core::config::{DatasetChoice, SimConfig, Weather};
use airshed_core::driver::ChemLayout;
use airshed_machine::MachineProfile;
use airshed_server::cache::NumericsKey;
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, and stable across platforms and Rust
/// versions (the std hashers are not), so a seed names the same inputs
/// forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` (workload, client).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where a scenario's captured work is replayed: the parts of a request
/// that do not change its numerics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    pub machine: MachineProfile,
    pub p: usize,
    pub layout: ChemLayout,
}

const MACHINES: [MachineProfile; 3] = [
    MachineProfile::t3e(),
    MachineProfile::t3d(),
    MachineProfile::paragon(),
];
/// One node count: replay cost grows with P, so with a single P every
/// profile-cache hit costs about the same and the service's median
/// latency sits inside one cluster instead of between two.
const NODE_COUNTS: [usize; 1] = [128];
const LAYOUTS: [ChemLayout; 2] = [ChemLayout::Block, ChemLayout::Cyclic];
/// Number of distinct placements.
pub const PLACEMENTS: usize = MACHINES.len() * NODE_COUNTS.len() * LAYOUTS.len();

impl Placement {
    /// Placement number `i` of [`PLACEMENTS`]; the order of the
    /// fingerprint columns in `reference/*_catalogue.txt`.
    pub fn nth(i: usize) -> Placement {
        Placement {
            machine: MACHINES[i % MACHINES.len()],
            p: NODE_COUNTS[(i / MACHINES.len()) % NODE_COUNTS.len()],
            layout: LAYOUTS[i / (MACHINES.len() * NODE_COUNTS.len())],
        }
    }

    /// The index of `config`'s machine and P with `layout` among the
    /// placements, if it is one of them.
    pub fn index_of(config: &SimConfig, layout: ChemLayout) -> Option<usize> {
        (0..PLACEMENTS).find(|&i| {
            let p = Placement::nth(i);
            p.machine == config.machine && p.p == config.p && p.layout == layout
        })
    }

    fn draw(rng: &mut Rng) -> Placement {
        Placement::nth(rng.below(PLACEMENTS))
    }

    /// A placement that differs from `self` in machine, P or layout.
    fn draw_other(&self, rng: &mut Rng) -> Placement {
        loop {
            let p = Placement::draw(rng);
            if p != *self {
                return p;
            }
        }
    }

    pub fn apply(&self, config: &mut SimConfig) {
        config.machine = self.machine;
        config.p = self.p;
    }
}

/// Start hour of every small-grid scenario: midday, like `ne_episode`.
/// One start hour keeps the cost of fresh numerics alike across seeds,
/// so a run's throughput does not depend on which entries it drew.
const START_HOUR: usize = 12;

/// Small-grid numerics with a given emission scale.
fn numerics(columns: usize, hours: usize, emission_scale: f64) -> SimConfig {
    SimConfig {
        dataset: DatasetChoice::Tiny(columns),
        machine: MachineProfile::t3e(),
        p: 4,
        hours,
        start_hour: START_HOUR,
        kh: 0.012,
        chem_opts: Default::default(),
        weather: Weather::Ventilated,
        emission_scale,
    }
}

/// A fixed, finite list of distinct numerics whose serial reference
/// fingerprints are committed under `reference/`, so checking a report
/// costs a lookup instead of a second simulation. Generators draw fresh
/// numerics from it in a seeded order; once a run has used every entry
/// they fall back to numerics drawn from a continuum, which are checked
/// against a reference simulated after the window.
#[derive(Debug, Clone, Copy)]
pub struct Catalogue {
    pub name: &'static str,
    pub columns: usize,
    pub hours: usize,
    pub len: usize,
}

impl Catalogue {
    /// Entry `i`: emission scales evenly spaced over `[0.75, 1.25)`.
    pub fn entry(&self, i: usize) -> SimConfig {
        numerics(
            self.columns,
            self.hours,
            0.75 + 0.5 * (i as f64 + 0.5) / self.len as f64,
        )
    }

    /// Numerics outside the catalogue: an emission scale drawn from the
    /// same range as a continuum (distinct from every entry and, but for
    /// a 2⁻⁵³ accident, from each other).
    fn off_catalogue(&self, rng: &mut Rng) -> SimConfig {
        numerics(self.columns, self.hours, 0.75 + 0.5 * rng.unit())
    }
}

/// Seeded order of the catalogue entries `i` with `i % parts == part`.
fn shuffled(rng: &mut Rng, len: usize, part: usize, parts: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (part..len).step_by(parts.max(1)).collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

// ---------------------------------------------------------------- NE

/// Emission scales of the `ne_episode` input variants. The seed picks
/// one; each has a committed serial reference under `reference/`.
pub const NE_VARIANTS: [f64; 4] = [0.90, 0.95, 1.05, 1.10];

/// The NE hour the analyst runs: midday, so photochemistry is active.
pub fn ne_config(variant: usize) -> SimConfig {
    SimConfig {
        dataset: DatasetChoice::NorthEast,
        machine: MachineProfile::t3e(),
        p: 16,
        hours: 1,
        start_hour: 12,
        kh: 0.012,
        chem_opts: Default::default(),
        weather: Weather::Ventilated,
        emission_scale: NE_VARIANTS[variant],
    }
}

pub fn ne_variant(seed: u64) -> usize {
    Rng::new(seed, 1).below(NE_VARIANTS.len())
}

// ----------------------------------------------------------- service

/// The service's fresh numerics: four-hour scenarios on a 24-column
/// grid. Replaying four hours on 64 or 128 nodes takes long enough that
/// a cache hit's latency is mostly replay, not thread wake-ups.
pub const SERVICE: Catalogue = Catalogue {
    name: "service",
    columns: 24,
    hours: 4,
    len: 256,
};
/// Every `SERVICE_FRESH_EVERY`-th request of a client runs fresh
/// numerics; the rest reuse numerics the same client requested before,
/// under a different placement.
pub const SERVICE_FRESH_EVERY: usize = 4;

/// One service request as generated.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    pub config: SimConfig,
    pub layout: ChemLayout,
    /// True when the numerics repeat an earlier request of this client.
    pub reuse: bool,
}

/// A client's deterministic request stream. Client `c` of `n` draws its
/// fresh numerics from the catalogue entries `i % n == c`, so no two
/// clients share numerics.
pub struct ClientStream {
    rng: Rng,
    issued: usize,
    order: Vec<usize>,
    /// Fresh numerics requested so far, with their first placement.
    history: Vec<(SimConfig, Placement)>,
}

impl ClientStream {
    pub fn new(seed: u64, client: usize, clients: usize) -> ClientStream {
        let mut rng = Rng::new(seed, 100 + client as u64);
        let order = shuffled(&mut rng, SERVICE.len, client, clients);
        ClientStream {
            rng,
            issued: 0,
            order,
            history: Vec::new(),
        }
    }

    pub fn next_request(&mut self) -> ServiceRequest {
        let fresh = self.issued.is_multiple_of(SERVICE_FRESH_EVERY);
        self.issued += 1;
        if fresh {
            let mut config = match self.order.get(self.history.len()) {
                Some(&i) => SERVICE.entry(i),
                None => SERVICE.off_catalogue(&mut self.rng),
            };
            let placement = Placement::draw(&mut self.rng);
            placement.apply(&mut config);
            self.history.push((config.clone(), placement));
            ServiceRequest {
                config,
                layout: placement.layout,
                reuse: false,
            }
        } else {
            let (base, first) = &self.history[self.rng.below(self.history.len())];
            let placement = first.draw_other(&mut self.rng);
            let mut config = base.clone();
            placement.apply(&mut config);
            ServiceRequest {
                config,
                layout: placement.layout,
                reuse: true,
            }
        }
    }
}

// ------------------------------------------------------------ fabric

/// The fabric's jobs: three hours each, so per-hour Progress frames
/// flow, on a 24-column grid.
pub const FABRIC: Catalogue = Catalogue {
    name: "fabric",
    columns: 24,
    hours: 3,
    len: 256,
};
/// Jobs per fabric batch.
pub const FABRIC_BATCH: usize = 12;

/// A stream of fabric batches in which no two jobs of the whole stream
/// share numerics.
pub struct FabricStream {
    rng: Rng,
    order: Vec<usize>,
    seen: HashSet<NumericsKey>,
}

impl FabricStream {
    pub fn new(seed: u64) -> FabricStream {
        let mut rng = Rng::new(seed, 3);
        let order = shuffled(&mut rng, FABRIC.len, 0, 1);
        FabricStream {
            rng,
            order,
            seen: HashSet::new(),
        }
    }

    pub fn next_batch(&mut self) -> Vec<(SimConfig, ChemLayout)> {
        let mut batch = Vec::with_capacity(FABRIC_BATCH);
        while batch.len() < FABRIC_BATCH {
            let mut config = match self.order.get(self.seen.len()) {
                Some(&i) => FABRIC.entry(i),
                None => FABRIC.off_catalogue(&mut self.rng),
            };
            let placement = Placement::draw(&mut self.rng);
            placement.apply(&mut config);
            if self.seen.insert(NumericsKey::of(&config)) {
                batch.push((config, placement.layout));
            }
        }
        batch
    }
}

/// Jobs in `jobs` whose numerics equal an earlier job's — the share the
/// fabric workload promises is zero, measured rather than assumed.
pub fn shared_numerics<'a>(jobs: impl IntoIterator<Item = &'a SimConfig>) -> usize {
    let mut seen = HashSet::new();
    jobs.into_iter()
        .filter(|c| !seen.insert(NumericsKey::of(c)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn describe(c: &SimConfig, layout: ChemLayout) -> String {
        format!(
            "{:?}|{}|{}|{}|{}|{:016x}|{:?}",
            c.dataset,
            c.machine.name,
            c.p,
            c.hours,
            c.start_hour,
            c.emission_scale.to_bits(),
            layout
        )
    }

    fn service_trace(seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut s = ClientStream::new(seed, client, 2);
        (0..n)
            .map(|_| {
                let r = s.next_request();
                format!("{}|{}", describe(&r.config, r.layout), r.reuse)
            })
            .collect()
    }

    fn fabric_trace(seed: u64, batches: usize) -> Vec<String> {
        let mut s = FabricStream::new(seed);
        (0..batches)
            .flat_map(|_| s.next_batch())
            .map(|(c, l)| describe(&c, l))
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(service_trace(7, 0, 40), service_trace(7, 0, 40));
        assert_eq!(fabric_trace(7, 3), fabric_trace(7, 3));
        assert_eq!(ne_variant(7), ne_variant(7));
        // Different seeds and different clients give different streams.
        assert_ne!(service_trace(7, 0, 40), service_trace(8, 0, 40));
        assert_ne!(service_trace(7, 0, 40), service_trace(7, 1, 40));
        assert_ne!(fabric_trace(7, 3), fabric_trace(8, 3));
        let variants: HashSet<usize> = (0..64).map(ne_variant).collect();
        assert_eq!(
            variants.len(),
            NE_VARIANTS.len(),
            "every variant is reachable"
        );
    }

    #[test]
    fn service_reuse_is_three_in_four_and_changes_placement() {
        // Past the client's share of the catalogue, too.
        let n = 4 * SERVICE.len / 2 + 100;
        let mut s = ClientStream::new(11, 0, 2);
        let reqs: Vec<_> = (0..n).map(|_| s.next_request()).collect();
        let reused = reqs.iter().filter(|r| r.reuse).count();
        assert_eq!(reused, n * 3 / 4);
        for r in reqs.iter().filter(|r| r.reuse) {
            let original = reqs
                .iter()
                .find(|o| !o.reuse && NumericsKey::of(&o.config) == NumericsKey::of(&r.config))
                .expect("reuse names numerics this client requested earlier");
            let same_place = original.config.machine == r.config.machine
                && original.config.p == r.config.p
                && original.layout == r.layout;
            assert!(!same_place, "reuse must change machine, P or layout");
        }
        // Fresh numerics are distinct across clients too.
        let mut other = ClientStream::new(11, 1, 2);
        let fresh = reqs
            .iter()
            .filter(|r| !r.reuse)
            .map(|r| r.config.clone())
            .chain(
                (0..n)
                    .map(|_| other.next_request())
                    .filter(|r| !r.reuse)
                    .map(|r| r.config),
            );
        assert_eq!(shared_numerics(fresh.collect::<Vec<_>>().iter()), 0);
    }

    #[test]
    fn fabric_batches_never_share_numerics() {
        // Enough batches to use up the catalogue and continue past it.
        let batches = FABRIC.len / FABRIC_BATCH + 3;
        let mut s = FabricStream::new(5);
        let jobs: Vec<SimConfig> = (0..batches)
            .flat_map(|_| s.next_batch())
            .map(|(c, _)| c)
            .collect();
        assert_eq!(jobs.len(), batches * FABRIC_BATCH);
        assert_eq!(shared_numerics(&jobs), 0);
        let mut dup = jobs[..3].to_vec();
        dup.push(jobs[1].clone());
        assert_eq!(
            shared_numerics(&dup),
            1,
            "the counter sees a planted repeat"
        );
    }
}
