//! The three workloads, each measured from outside through the public
//! entry points a user calls.
//!
//! * `ne_episode` — the analyst's time-to-solution run: one NE midday
//!   hour per `driver::run_resumable_with` call, simd backend.
//! * `scenario_service` — a closed loop of `nproc` clients against one
//!   `ScenarioServer`; three requests in four reuse numerics the client
//!   asked for before, under another placement.
//! * `fabric_batch` — seeded batches of jobs with pairwise distinct
//!   numerics through a `fabric::serve_batch` frontend and two loopback
//!   `run_shard` threads.

use crate::check::{CatalogueRefs, NeReference, References};
use crate::gen::{self, ClientStream, FabricStream, ServiceRequest};
use crate::host::peak_rss_mb;
use crate::stats::{median, tail};
use airshed_core::config::SimConfig;
use airshed_core::driver::run_resumable_with;
use airshed_core::phases::PhaseEngine;
use airshed_core::{ChemLayout, ExecSpec, Obs, RunReport};
use airshed_fabric::{
    run_shard, serve_batch, FaultPlan, FrontendOptions, RouterConfig, ShardOptions,
};
use airshed_server::metrics::MetricsSnapshot;
use airshed_server::{ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median. Starting an
/// idle server takes a fraction of a millisecond, so the service repeats
/// it more often to keep its median steady.
pub const NE_SETUP_REPS: usize = 41;
const SERVICE_SETUP_REPS: usize = 201;
const FABRIC_SETUP_REPS: usize = 61;
/// Shards in the fabric workload.
pub const FABRIC_SHARDS: usize = 2;

/// Threads the host offers (`nproc`).
pub fn nproc() -> usize {
    airshed_hpf::host::available_threads()
}

/// What one workload run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up times (s), one per repetition.
    pub setup: Vec<f64>,
    /// Per-operation latency (s) of every completed operation.
    pub latencies: Vec<f64>,
    /// Throughput (operations/s) of each slice of the measured window:
    /// one NE call, one client cycle of the service, one fabric batch.
    /// A run reports their median, so a slice slowed by outside load on
    /// the host does not move the run's figure.
    pub rates: Vec<f64>,
    /// Operations that completed (calls, requests or jobs).
    pub completed: usize,
    /// Scenario hours delivered by completed operations.
    pub hours: usize,
    /// Operations attempted, and those that failed, were refused or
    /// returned a wrong output.
    pub attempted: usize,
    pub failed: usize,
    pub peak_rss_mb: f64,
    /// Facts reported beside the metrics (shares with bases, counts).
    pub notes: Vec<(String, String)>,
}

impl Measured {
    /// The end-to-end metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup), "s"),
            (
                "sim_hours_per_s",
                self.jobs_per_s() * self.hours as f64 / self.completed as f64,
                "1/s",
            ),
            ("jobs_per_s", self.jobs_per_s(), "1/s"),
            ("latency_p50_s", median(&self.latencies), "s"),
            ("latency_tail_s", tail(&self.latencies).value, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    fn jobs_per_s(&self) -> f64 {
        median(&self.rates)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The notes every workload carries: sample counts, the tail
    /// percentile read, and the failure share with its base.
    pub fn finish_notes(&mut self) {
        let t = tail(&self.latencies);
        self.note("latency_samples", t.samples);
        self.note("latency_tail_pct", t.pct);
        self.note("latency_tail_beyond", t.beyond);
        self.note("setup_samples", self.setup.len());
        self.note("throughput_slices", self.rates.len());
        self.note(
            "failed_frac",
            format!(
                "{} ({} of {})",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.failed,
                self.attempted
            ),
        );
    }
}

// ------------------------------------------------------------ NE

/// Build the NE dataset and phase engine the way the driver does:
/// `(dataset_s, engine_s)`.
pub fn ne_setup_once(config: &SimConfig) -> (f64, f64) {
    let t = Instant::now();
    let dataset = config.dataset.build();
    let dataset_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = PhaseEngine::new(dataset, config.kh, config.chem_opts);
    let engine_s = t.elapsed().as_secs_f64();
    black_box(engine.dataset.nodes());
    (dataset_s, engine_s)
}

pub fn ne_episode(seed: u64, seconds: f64) -> Result<Measured, String> {
    let variant = gen::ne_variant(seed);
    let config = gen::ne_config(variant);
    let reference = NeReference::load(variant)?;
    let exec = ExecSpec::simd(nproc());
    let mut m = Measured::default();
    for _ in 0..NE_SETUP_REPS {
        let (d, e) = ne_setup_once(&config);
        m.setup.push(d + e);
    }
    let mut checks = Vec::new();
    let mut window_s = 0.0;
    while window_s < seconds {
        let t = Instant::now();
        let (report, profile, ckpt) = run_resumable_with(&config, None, exec);
        let dt = t.elapsed().as_secs_f64();
        window_s += dt;
        m.rates.push(1.0 / dt);
        m.attempted += 1;
        m.completed += 1;
        m.hours += report.hours;
        m.latencies.push(dt);
        checks.push(reference.check(&profile, &ckpt.state));
    }
    m.peak_rss_mb = peak_rss_mb();
    for c in checks {
        if let Err(e) = c {
            eprintln!("ne_episode: wrong output: {e}");
            m.failed += 1;
        }
    }
    m.note("ne_variant", variant);
    m.note("ne_emission_scale", config.emission_scale);
    m.note("backend", exec.describe());
    m.finish_notes();
    Ok(m)
}

// ------------------------------------------------------- service

/// When a client stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the window has run this long (the timed workload).
    Seconds(f64),
    /// After this many requests per client or batches (a fixed amount
    /// of work, for traced-vs-untraced comparisons).
    Count(usize),
}

impl Stop {
    fn more(&self, started: Instant, done: usize) -> bool {
        match *self {
            Stop::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Stop::Count(n) => done < n,
        }
    }
}

/// One request as answered.
pub struct Answered {
    /// The client that sent it.
    pub client: usize,
    pub request: ServiceRequest,
    pub result: Result<RunReport, String>,
    pub latency_s: f64,
    pub submit_s: f64,
    /// When the answer arrived, seconds after the pass started.
    pub done_s: f64,
}

/// The closed loop's rate in each client cycle. A cycle is a client's
/// fresh request and the reuses that follow it, from the fresh request's
/// submission to the answer of its last reuse; its rate is the requests
/// it completed over its duration, times the number of clients, the
/// loop's rate if every client kept that pace. Cycles start at a fresh
/// request, so each holds the same mix of work; a cut by completion
/// count instead lands inside bursts of cache hits and reads a rate that
/// swings with where the cut fell.
fn cycle_rates(answered: &[Answered], clients: usize) -> Vec<f64> {
    (0..clients)
        .flat_map(|client| {
            let mine: Vec<&Answered> = answered.iter().filter(|a| a.client == client).collect();
            mine.chunks_exact(gen::SERVICE_FRESH_EVERY)
                .map(|cycle| {
                    let start = cycle[0].done_s - cycle[0].latency_s;
                    let end = cycle[cycle.len() - 1].done_s;
                    let ok = cycle.iter().filter(|a| a.result.is_ok()).count();
                    (clients * ok) as f64 / (end - start)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A closed-loop pass over one server.
pub struct ServicePass {
    pub answered: Vec<Answered>,
    pub window_s: f64,
    pub snapshot: MetricsSnapshot,
}

pub fn service_config(obs: &Obs) -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        // Large enough that no profile is evicted within a run: every
        // reuse is then an exact profile-cache hit.
        profile_cache_capacity: 1 << 14,
        result_cache_capacity: 1 << 16,
        exec: ExecSpec::serial(),
        obs: obs.clone(),
        ..Default::default()
    }
}

pub fn service_pass(seed: u64, stop: Stop, obs: &Obs) -> ServicePass {
    let server = ScenarioServer::start(service_config(obs));
    let answered = Mutex::new(Vec::new());
    let started = Instant::now();
    let last_done = Mutex::new(started);
    std::thread::scope(|s| {
        for client in 0..nproc() {
            let (server, answered, last_done) = (&server, &answered, &last_done);
            s.spawn(move || {
                let mut stream = ClientStream::new(seed, client, nproc());
                let mut mine = Vec::new();
                while stop.more(started, mine.len()) {
                    let request = stream.next_request();
                    let mut sr = ScenarioRequest::new(request.config.clone());
                    sr.layout = request.layout;
                    let t = Instant::now();
                    let outcome = server.submit(sr);
                    let submit_s = t.elapsed().as_secs_f64();
                    let result = match outcome {
                        SubmitOutcome::Submitted(h) => {
                            h.wait().map(|r| (*r).clone()).map_err(|e| e.to_string())
                        }
                        SubmitOutcome::QueueFull => Err("refused: queue full".to_string()),
                        SubmitOutcome::Rejected { .. } => Err("refused by admission".to_string()),
                        SubmitOutcome::ShuttingDown => Err("refused: shutting down".to_string()),
                    };
                    let latency_s = t.elapsed().as_secs_f64();
                    mine.push(Answered {
                        client,
                        request,
                        result,
                        latency_s,
                        submit_s,
                        done_s: started.elapsed().as_secs_f64(),
                    });
                }
                let mut last = last_done
                    .lock()
                    .expect("a thread panicked while holding the lock");
                *last = (*last).max(Instant::now());
                answered
                    .lock()
                    .expect("a thread panicked while holding the lock")
                    .extend(mine);
            });
        }
    });
    let window_s = (*last_done
        .lock()
        .expect("a thread panicked while holding the lock")
        - started)
        .as_secs_f64();
    let snapshot = server.shutdown();
    ServicePass {
        answered: answered
            .into_inner()
            .expect("a thread panicked while holding the lock"),
        window_s,
        snapshot,
    }
}

/// Check every answer against serial references. Returns how many
/// failed, were refused, or returned a wrong report, and how many
/// references had to be simulated because the catalogue lacked them.
pub fn verify_service(answered: &[Answered]) -> Result<(usize, usize), String> {
    let requests: Vec<(SimConfig, ChemLayout)> = answered
        .iter()
        .map(|a| (a.request.config.clone(), a.request.layout))
        .collect();
    let refs = References::new(CatalogueRefs::load(&gen::SERVICE)?, &requests, nproc());
    let failed = answered
        .iter()
        .filter(|a| {
            let verdict = a
                .result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| refs.check(&a.request.config, a.request.layout, r));
            if let Err(e) = &verdict {
                eprintln!("scenario_service: {e}");
            }
            verdict.is_err()
        })
        .count();
    Ok((failed, refs.simulated()))
}

/// Start an idle server and shut it down: the service's set-up cost.
fn service_setup_once() -> f64 {
    let t = Instant::now();
    let server = ScenarioServer::start(service_config(&Obs::off()));
    black_box(server.queue_depth());
    server.shutdown();
    t.elapsed().as_secs_f64()
}

pub fn scenario_service(seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured {
        setup: (0..SERVICE_SETUP_REPS)
            .map(|_| service_setup_once())
            .collect(),
        ..Default::default()
    };
    let pass = service_pass(seed, Stop::Seconds(seconds), &Obs::off());
    m.peak_rss_mb = peak_rss_mb();
    m.attempted = pass.answered.len();
    for a in &pass.answered {
        if a.result.is_ok() {
            m.completed += 1;
            m.hours += a.request.config.hours;
            m.latencies.push(a.latency_s);
        }
    }
    m.rates = cycle_rates(&pass.answered, nproc());
    let (failed, simulated) = verify_service(&pass.answered)?;
    m.failed = failed;
    m.note("references_simulated", simulated);
    let reused = pass.answered.iter().filter(|a| a.request.reuse).count();
    let snap = &pass.snapshot;
    let lookups = snap.profile_cache_hits + snap.profile_cache_misses;
    m.note(
        "generated_reuse_share",
        format!(
            "{} ({reused} of {})",
            reused as f64 / m.attempted.max(1) as f64,
            m.attempted
        ),
    );
    m.note(
        "profile_hit_share",
        format!(
            "{} ({} of {lookups} profile lookups)",
            snap.profile_cache_hits as f64 / lookups.max(1) as f64,
            snap.profile_cache_hits
        ),
    );
    m.note(
        "result_hit_share",
        format!(
            "{} ({} of {} requests)",
            snap.result_cache_hits as f64
                / (snap.result_cache_hits + snap.result_cache_misses).max(1) as f64,
            snap.result_cache_hits,
            snap.result_cache_hits + snap.result_cache_misses
        ),
    );
    m.note("clients", nproc());
    m.note("workers", nproc());
    m.finish_notes();
    Ok(m)
}

// -------------------------------------------------------- fabric

/// One fabric batch as served.
pub struct Batch {
    pub jobs: Vec<(SimConfig, ChemLayout)>,
    pub outcome: Result<airshed_fabric::FabricOutcome, String>,
    pub wall_s: f64,
}

fn shard_options(connect: SocketAddr, name: String) -> ShardOptions {
    ShardOptions {
        connect: connect.to_string(),
        name,
        workers: 1,
        exec: ExecSpec::serial(),
        heartbeat_ms: 50,
        die_after_hours: None,
        drop_after_hours: None,
        fault: FaultPlan::none(),
    }
}

/// Serve one batch: bind, start the shards, run the frontend, join.
/// `via` lets the traced run put a byte-counting proxy between the
/// shards and the frontend; it maps the frontend address to the one
/// shards should dial. The batch's wall time runs from starting the
/// shards to the frontend's return; joining the shards afterwards only
/// waits out their heartbeat sleep, which no job waits for.
pub fn serve_one(
    jobs: Vec<(SimConfig, ChemLayout)>,
    obs: &Obs,
    via: &dyn Fn(SocketAddr) -> SocketAddr,
) -> Batch {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let dial = via(listener.local_addr().expect("local addr"));
    let t = Instant::now();
    let shards: Vec<_> = (0..FABRIC_SHARDS)
        .map(|i| {
            let (opts, obs) = (shard_options(dial, format!("s{i}")), obs.clone());
            std::thread::spawn(move || run_shard(opts, &obs))
        })
        .collect();
    let outcome = serve_batch(
        &listener,
        FrontendOptions {
            expect: FABRIC_SHARDS,
            router: RouterConfig::default(),
            deadline: Some(Duration::from_secs(120)),
        },
        &jobs,
        obs,
    );
    let wall_s = t.elapsed().as_secs_f64();
    for s in shards {
        match s.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("fabric_batch: shard ended with {e}"),
            Err(_) => eprintln!("fabric_batch: shard thread panicked"),
        }
    }
    Batch {
        jobs,
        outcome,
        wall_s,
    }
}

pub fn fabric_pass(
    seed: u64,
    stop: Stop,
    obs: &Obs,
    via: &dyn Fn(SocketAddr) -> SocketAddr,
) -> Vec<Batch> {
    let mut stream = FabricStream::new(seed);
    let started = Instant::now();
    let mut batches = Vec::new();
    while stop.more(started, batches.len()) {
        batches.push(serve_one(stream.next_batch(), obs, via));
    }
    batches
}

/// The checked outcome of a set of fabric batches.
pub struct FabricCheck<'a> {
    /// Jobs submitted, plus stray reports for jobs never submitted.
    pub attempted: usize,
    /// Jobs whose batch failed, that got no report, more than one
    /// report, a wrong report or an implausible latency anatomy; plus
    /// every stray report.
    pub failed: usize,
    /// Jobs whose reference the catalogue lacked, so it was simulated.
    pub simulated: usize,
    /// Per batch, the reports of the jobs that passed every check. Only
    /// these count towards throughput and latency.
    pub verified: Vec<Vec<&'a RunReport>>,
}

/// A job's latency anatomy, if it has one that fits inside the batch's
/// externally timed wall: `0 < end_to_end <= wall_s`.
fn plausible_anatomy(report: &RunReport, wall_s: f64) -> Result<(), String> {
    let a = report.anatomy.ok_or("report has no latency anatomy")?;
    let e2e_s = a.end_to_end_ms as f64 / 1e3;
    if e2e_s > 0.0 && e2e_s <= wall_s {
        Ok(())
    } else {
        Err(format!(
            "end-to-end {e2e_s} s lies outside (0, {wall_s}] s, the batch's wall time"
        ))
    }
}

/// Check every job of every batch. A job passes only if its batch was
/// served, it got exactly one report, that report matches the reference
/// bit for bit, and its latency anatomy fits inside the batch's wall
/// time. A report whose index names no submitted job is a wrong output
/// of its own: it counts as attempted and failed.
pub fn verify_fabric(batches: &[Batch]) -> Result<FabricCheck<'_>, String> {
    let jobs: Vec<(SimConfig, ChemLayout)> = batches
        .iter()
        .flat_map(|b| b.jobs.iter().cloned())
        .collect();
    let refs = References::new(CatalogueRefs::load(&gen::FABRIC)?, &jobs, nproc());
    let mut check = FabricCheck {
        attempted: 0,
        failed: 0,
        simulated: 0,
        verified: Vec::new(),
    };
    for b in batches {
        check.attempted += b.jobs.len();
        let mut verified = Vec::new();
        let reports = match &b.outcome {
            Ok(o) => &o.reports,
            Err(e) => {
                eprintln!("fabric_batch: batch failed: {e}");
                check.failed += b.jobs.len();
                check.verified.push(verified);
                continue;
            }
        };
        // The indices come from the program under test.
        let mut answers: Vec<Vec<&RunReport>> = vec![Vec::new(); b.jobs.len()];
        for (i, report) in reports {
            match answers.get_mut(*i) {
                Some(a) => a.push(report),
                None => {
                    eprintln!("fabric_batch: report for unknown job {i}");
                    check.attempted += 1;
                    check.failed += 1;
                }
            }
        }
        for (i, ((config, layout), answer)) in b.jobs.iter().zip(&answers).enumerate() {
            let outcome = match answer.as_slice() {
                [] => Err("no report".to_string()),
                [report] => refs
                    .check(config, *layout, report)
                    .and_then(|()| plausible_anatomy(report, b.wall_s))
                    .map(|()| *report),
                more => Err(format!("{} reports for one job", more.len())),
            };
            match outcome {
                Ok(report) => verified.push(report),
                Err(e) => {
                    eprintln!("fabric_batch: job {i}: {e}");
                    check.failed += 1;
                }
            }
        }
        check.verified.push(verified);
    }
    check.simulated = refs.simulated();
    Ok(check)
}

/// Bring a fleet up and down with an empty batch: the fabric's set-up.
fn fabric_setup_once() -> f64 {
    let b = serve_one(Vec::new(), &Obs::off(), &|a| a);
    black_box(b.outcome.is_ok());
    b.wall_s
}

pub fn fabric_batch(seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured {
        setup: (0..FABRIC_SETUP_REPS)
            .map(|_| fabric_setup_once())
            .collect(),
        ..Default::default()
    };
    let batches = fabric_pass(seed, Stop::Seconds(seconds), &Obs::off(), &|a| a);
    m.peak_rss_mb = peak_rss_mb();
    let check = verify_fabric(&batches)?;
    for (b, verified) in batches.iter().zip(&check.verified) {
        m.rates.push(verified.len() as f64 / b.wall_s);
        for r in verified {
            m.completed += 1;
            m.hours += r.hours;
            let a = r.anatomy.expect("verified reports have an anatomy");
            m.latencies.push(a.end_to_end_ms as f64 / 1e3);
        }
    }
    let (attempted, simulated) = (check.attempted, check.simulated);
    m.attempted = attempted;
    m.failed = check.failed;
    m.note("references_simulated", simulated);
    let shared = gen::shared_numerics(batches.iter().flat_map(|b| b.jobs.iter().map(|(c, _)| c)));
    m.note(
        "shared_numerics_share",
        format!(
            "{} ({shared} of {attempted} jobs)",
            shared as f64 / attempted.max(1) as f64
        ),
    );
    m.note("batches", batches.len());
    m.note("jobs_per_batch", gen::FABRIC_BATCH);
    m.note("shards", FABRIC_SHARDS);
    m.finish_notes();
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_core::driver::PlanLayouts;
    use airshed_core::plan::replay_profile_with;

    #[test]
    fn cycle_rates_start_at_each_fresh_request() {
        let request = ClientStream::new(1, 0, 1).next_request();
        let (report, _) = good_and_bad(&request);
        // Client, submitted at, answered at, and whether it completed.
        let answer = |client, from: f64, to: f64, ok| Answered {
            client,
            request: request.clone(),
            result: if ok {
                Ok(report.clone())
            } else {
                Err("refused".to_string())
            },
            latency_s: to - from,
            submit_s: 0.0,
            done_s: to,
        };
        let answered = [
            // Client 0: a 1 s fresh request, three quick hits, then a
            // second cycle of 2 s with one refusal, then a partial cycle.
            answer(0, 0.0, 1.0, true),
            answer(0, 1.0, 1.2, true),
            answer(0, 1.2, 1.5, true),
            answer(0, 1.5, 2.0, true),
            answer(1, 0.0, 4.0, true),
            answer(0, 2.0, 3.5, true),
            answer(0, 3.5, 3.6, false),
            answer(0, 3.6, 3.8, true),
            answer(0, 3.8, 4.0, true),
            answer(0, 4.0, 9.0, true),
            answer(1, 4.0, 4.1, true),
            answer(1, 4.1, 4.2, true),
            answer(1, 4.2, 5.0, true),
        ];
        assert_eq!(
            cycle_rates(&answered, 2),
            vec![2.0 * 4.0 / 2.0, 2.0 * 3.0 / 2.0, 2.0 * 4.0 / 5.0]
        );
    }

    fn failed_frac(m: &mut Measured) -> String {
        m.finish_notes();
        m.notes
            .iter()
            .find(|(k, _)| k == "failed_frac")
            .unwrap()
            .1
            .clone()
    }

    /// A correct report for a generated request, and a copy with one bit
    /// of one virtual time flipped.
    fn good_and_bad(request: &ServiceRequest) -> (RunReport, RunReport) {
        let c = &request.config;
        let (_, profile, _) = run_resumable_with(c, None, ExecSpec::serial());
        let good = replay_profile_with(&profile, c.machine, c.p, PlanLayouts::chem(request.layout));
        let mut bad = good.clone();
        bad.total_seconds = f64::from_bits(bad.total_seconds.to_bits() ^ 1);
        (good, bad)
    }

    #[test]
    fn planted_service_mismatch_shows_in_failed_frac() {
        let request = ClientStream::new(1, 0, 1).next_request();
        let (good, bad) = good_and_bad(&request);
        let answer = |result| Answered {
            client: 0,
            request: request.clone(),
            result,
            latency_s: 0.0,
            submit_s: 0.0,
            done_s: 0.0,
        };
        let answered = [
            answer(Ok(good)),
            answer(Ok(bad)),
            answer(Err("refused".to_string())),
        ];
        let (failed, simulated) = verify_service(&answered).unwrap();
        assert_eq!((failed, simulated), (2, 0));
        let mut m = Measured {
            attempted: answered.len(),
            failed,
            ..Default::default()
        };
        assert_eq!(failed_frac(&mut m), format!("{} (2 of 3)", 2.0 / 3.0));
    }

    #[test]
    fn planted_fabric_mismatches_show_in_failed_frac() {
        let jobs = FabricStream::new(1).next_batch();
        let (config, layout) = jobs[0].clone();
        let request = ServiceRequest {
            config,
            layout,
            reuse: false,
        };
        let (mut good, mut bad) = good_and_bad(&request);
        let timed = |ms| {
            Some(airshed_core::report::LatencyAnatomy {
                end_to_end_ms: ms,
                ..Default::default()
            })
        };
        good.anatomy = timed(500);
        bad.anatomy = timed(500);
        let mut untimed = good.clone();
        untimed.anatomy = None;
        let mut too_slow = good.clone();
        too_slow.anatomy = timed(1500);
        let outcome = |reports| airshed_fabric::FabricOutcome {
            reports,
            failures: Vec::new(),
            shards: Vec::new(),
            prometheus: String::new(),
        };
        let batch = |outcome| Batch {
            jobs: jobs[..2].to_vec(),
            outcome,
            wall_s: 1.0,
        };
        // Each batch has two jobs and job 1 is never answered. Job 0 is
        // correct only in the first batch.
        let batches = [
            batch(Ok(outcome(vec![(0, good.clone())]))),
            batch(Ok(outcome(vec![(0, bad)]))),
            batch(Ok(outcome(vec![(0, untimed)]))),
            batch(Ok(outcome(vec![(0, too_slow)]))),
            batch(Ok(outcome(vec![(0, good.clone()), (0, good.clone())]))),
            batch(Ok(outcome(vec![(0, good.clone()), (7, good.clone())]))),
            batch(Err("all shards lost".to_string())),
        ];
        let check = verify_fabric(&batches).unwrap();
        // 14 jobs and the stray report for job 7; only batches 0 and 5
        // have a verified job.
        assert_eq!((check.attempted, check.failed), (15, 13));
        let verified: Vec<usize> = check.verified.iter().map(Vec::len).collect();
        assert_eq!(verified, vec![1, 0, 0, 0, 0, 1, 0]);
        let mut m = Measured {
            attempted: check.attempted,
            failed: check.failed,
            ..Default::default()
        };
        assert_eq!(failed_frac(&mut m), format!("{} (13 of 15)", 13.0 / 15.0));
    }
}
