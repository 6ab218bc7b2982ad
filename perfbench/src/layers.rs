//! The traced run: per-layer metrics, measured from outside.
//!
//! Kernels are timed as standalone units through their public
//! functions. Phase, server and fabric numbers come from spans the
//! program already emits through the public `Obs`/`Collector` hook
//! (a `SpanSink` attached here), from the reports the program returns,
//! and from a byte-counting loopback proxy between shards and frontend.
//! Each of the three workloads runs once untraced and once traced on
//! the same inputs; the difference is the tracing overhead. All outputs
//! are checked as in the untraced runs.

use crate::check::{reference_profiles, simd_matches_serial};
use crate::gen::{self, FabricStream};
use crate::stats::{median, timed_median};
use crate::workloads::{
    fabric_pass, ne_setup_once, nproc, service_pass, verify_fabric, verify_service, Batch, Stop,
};
use airshed_chem::mechanism::Mechanism;
use airshed_chem::simd::{integrate_cell4, Yb4Workspace};
use airshed_chem::species::{self as sp, N_SPECIES};
use airshed_chem::youngboris::{integrate_cell, YbOptions, YbStats, YbWorkspace};
use airshed_core::driver::{run_resumable_obs, run_resumable_with, PlanLayouts};
use airshed_core::obs::{Collector, SpanSink, Track};
use airshed_core::phases::PhaseEngine;
use airshed_core::plan::replay_profile_with;
use airshed_core::{ExecSpec, Obs};
use airshed_fabric::proto::Msg;
use airshed_server::cache::NumericsKey;
use airshed_server::ResumePoint;
use airshed_simd::F64x4;
use airshed_transport::operator::TransportWorkspace;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Phases the driver opens a span for inside each hour.
const PHASES: [&str; 6] = [
    "inputhour",
    "pretrans",
    "transport",
    "chemistry",
    "aerosol",
    "outputhour",
];
/// Requests per client in each traced/untraced service pass.
const SERVICE_REQUESTS: usize = 16;

#[derive(Default)]
pub struct Traced {
    pub metrics: Vec<(String, f64, String)>,
    pub notes: Vec<(String, String)>,
    pub attempted: usize,
    pub failed: usize,
}

impl Traced {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn verdict(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("traced run: {what}: {e}");
            self.failed += 1;
        }
    }
}

fn traced_obs() -> (Arc<SpanSink>, Obs) {
    let sink = Arc::new(SpanSink::new());
    let obs = Obs::new(Arc::clone(&sink) as Arc<dyn Collector>);
    (sink, obs)
}

/// Median duration (µs) of lane spans named `name`, and their count.
fn lane_spans(sink: &SpanSink, name: &str) -> (f64, usize) {
    let durs: Vec<f64> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == name && matches!(e.track, Track::Lane(_)))
        .map(|e| e.dur_us)
        .collect();
    (median(&durs), durs.len())
}

/// Every layer, whichever workload the run names: each traced run
/// reports the full per-layer set.
pub fn traced_run(seed: u64) -> Result<Traced, String> {
    let mut t = Traced::default();
    chem_kernels(&mut t);
    host_fork(&mut t);
    ne_layers(&mut t, seed)?;
    service_layers(&mut t, seed)?;
    fabric_layers(&mut t, seed)?;
    Ok(t)
}

// ------------------------------------------------------------ chem

fn polluted(lane: usize) -> Vec<f64> {
    let mut c = sp::background_vector();
    c[sp::NO] = 0.05 + 0.01 * lane as f64;
    c[sp::NO2] = 0.03;
    c[sp::PAR] = 0.8;
    c[sp::FORM] = 0.01;
    c
}

fn chem_kernels(t: &mut Traced) {
    let mech = Mechanism::carbon_bond();
    let opts = YbOptions::default();
    let mut k = Vec::new();
    mech.rate_constants(300.0, 0.85, &mut k);
    let conc = polluted(0);

    const EVALS: usize = 20_000;
    let (mut p, mut l) = (vec![0.0; N_SPECIES], vec![0.0; N_SPECIES]);
    let s = timed_median(7, || {
        for _ in 0..EVALS {
            mech.prod_loss(black_box(&conc), &k, &mut p, &mut l);
        }
        black_box(&p);
    });
    t.metric("chem.prod_loss_ns", s / EVALS as f64 * 1e9, "ns");

    const CELLS: usize = 200;
    let mut ws = YbWorkspace::new(N_SPECIES);
    let mut c = conc.clone();
    let mut stats = YbStats::default();
    let s = timed_median(7, || {
        stats = YbStats::default();
        for _ in 0..CELLS {
            c.copy_from_slice(&conc);
            stats.absorb(integrate_cell(
                &mech, &mut c, 300.0, 0.85, 10.0, &opts, &mut ws,
            ));
        }
    });
    t.metric("chem.yb_cell_us", s / CELLS as f64 * 1e6, "us");
    t.metric(
        "chem.evals_per_cell",
        stats.evals as f64 / CELLS as f64,
        "count",
    );
    t.metric(
        "chem.substeps_per_cell",
        stats.substeps as f64 / CELLS as f64,
        "count",
    );

    let cols: Vec<Vec<f64>> = (0..4).map(polluted).collect();
    let base4: Vec<F64x4> = (0..N_SPECIES)
        .map(|s| F64x4::new(cols[0][s], cols[1][s], cols[2][s], cols[3][s]))
        .collect();
    let mut ws4 = Yb4Workspace::new(N_SPECIES);
    let mut c4 = base4.clone();
    const BATCHES: usize = 100;
    let s = timed_median(7, || {
        for _ in 0..BATCHES {
            c4.copy_from_slice(&base4);
            black_box(integrate_cell4(&mech, &mut c4, &k, 10.0, &opts, &mut ws4).evals);
        }
    });
    // Per column: one batch advances four columns (lanes) one cell.
    t.metric("chem.yb4_col_us", s / (4 * BATCHES) as f64 * 1e6, "us");
}

// ------------------------------------------------------------ host

fn host_fork(t: &mut Traced) {
    let threads = nproc();
    const FORKS: usize = 200;
    let s = timed_median(5, || {
        for _ in 0..FORKS {
            let tasks: Vec<airshed_hpf::host::Task<'_>> = (0..threads)
                .map(|i| {
                    Box::new(move || {
                        black_box(i);
                    }) as _
                })
                .collect();
            airshed_hpf::host::run_parts(threads, tasks);
        }
    });
    t.metric("host.fork_us", s / FORKS as f64 * 1e6, "us");
}

// -------------------------------------------------------------- NE

fn ne_layers(t: &mut Traced, seed: u64) -> Result<(), String> {
    let variant = gen::ne_variant(seed);
    let config = gen::ne_config(variant);
    let simd = ExecSpec::simd(nproc());

    let (mut ds, mut en) = (Vec::new(), Vec::new());
    for _ in 0..crate::workloads::NE_SETUP_REPS {
        let (d, e) = ne_setup_once(&config);
        ds.push(d);
        en.push(e);
    }
    t.metric("setup.dataset_ms", median(&ds) * 1e3, "ms");
    t.metric("setup.engine_ms", median(&en) * 1e3, "ms");

    // One NE layer's transport half step on the simd solver path.
    let engine = PhaseEngine::new(config.dataset.build(), config.kh, config.chem_opts);
    let (input, _) = engine.input_hour(config.start_hour);
    let (op, _) = engine.pretrans(&input);
    let base: Vec<f64> = (0..op.n()).map(|i| 0.04 + 1e-3 * (i % 17) as f64).collect();
    let mut conc = base.clone();
    let mut ws = TransportWorkspace::new();
    let mut iters = Vec::new();
    let s = timed_median(15, || {
        conc.copy_from_slice(&base);
        iters.push(op.half_step_simd(0, &mut conc, 0.04, &mut ws).iterations as f64);
    });
    t.metric("transport.half_step_ms", s * 1e3, "ms");
    t.metric("transport.bicgstab_iters", median(&iters), "count");
    drop((engine, input, op));

    // The workload's hour untraced, traced, and on the serial backend.
    let start = Instant::now();
    let (_, plain_profile, plain) = run_resumable_with(&config, None, simd);
    let untraced_s = start.elapsed().as_secs_f64();

    let (sink, obs) = traced_obs();
    let start = Instant::now();
    let (report, profile, traced) = run_resumable_obs(&config, None, simd, &obs);
    let traced_s = start.elapsed().as_secs_f64();
    obs.flush();

    let start = Instant::now();
    let (_, serial_profile, serial) = run_resumable_with(&config, None, ExecSpec::serial());
    let serial_s = start.elapsed().as_secs_f64();

    for (what, p, s) in [
        ("ne simd hour", &plain_profile, &plain),
        ("ne traced simd hour", &profile, &traced),
    ] {
        t.verdict(
            what,
            simd_matches_serial((&serial_profile, &serial.state), (p, &s.state)),
        );
    }
    t.metric("trace.ne_overhead_s", traced_s - untraced_s, "s");
    t.metric("baseline.serial_hour_s", serial_s, "s");
    t.metric("baseline.simd_speedup", serial_s / untraced_s, "x");

    let hours = report.hours.max(1) as f64;
    let (hour_us, _) = lane_spans(&sink, "hour");
    let mut explained = 0.0;
    for phase in PHASES {
        let (us, calls) = lane_spans(&sink, phase);
        let per_hour = calls as f64 / hours;
        explained += us * per_hour;
        t.metric(&format!("phases.{phase}_us"), us, "us");
        t.metric(&format!("phases.{phase}_calls"), per_hour, "count");
    }
    t.metric(
        "phases.residual_frac",
        (hour_us - explained) / hour_us,
        "frac",
    );
    t.note("phases_hour_us", hour_us);
    let staged = report.copy_bytes.map_or(0, |c| c.soa_staging);
    t.metric("phases.staged_bytes_per_hour", staged as f64 / hours, "B");
    let forks = sink
        .events()
        .iter()
        .filter(|e| matches!(e.track, Track::PoolWorker { .. }) && e.arg == Some(("seq", 0)))
        .count();
    t.metric("host.forks_per_hour", forks as f64 / hours, "count");
    Ok(())
}

// --------------------------------------------------------- service

fn service_layers(t: &mut Traced, seed: u64) -> Result<(), String> {
    let plain = service_pass(seed, Stop::Count(SERVICE_REQUESTS), &Obs::off());
    let (sink, obs) = traced_obs();
    let traced = service_pass(seed, Stop::Count(SERVICE_REQUESTS), &obs);
    obs.flush();
    t.metric(
        "trace.service_overhead_s",
        traced.window_s - plain.window_s,
        "s",
    );

    let submit: Vec<f64> = traced.answered.iter().map(|a| a.submit_s).collect();
    t.metric("server.submit_us", median(&submit) * 1e6, "us");
    t.metric(
        "server.queue_wait_ms",
        lane_spans(&sink, "queue-wait").0 / 1e3,
        "ms",
    );
    t.metric("server.service_ms", lane_spans(&sink, "job").0 / 1e3, "ms");
    let snap = &traced.snapshot;
    let profile_lookups = snap.profile_cache_hits + snap.profile_cache_misses;
    let result_lookups = snap.result_cache_hits + snap.result_cache_misses;
    t.metric(
        "server.profile_hit_ratio",
        snap.profile_cache_hits as f64 / profile_lookups.max(1) as f64,
        "frac",
    );
    t.metric(
        "server.result_hit_ratio",
        snap.result_cache_hits as f64 / result_lookups.max(1) as f64,
        "frac",
    );
    t.note(
        "server_profile_hits",
        format!("{} of {profile_lookups}", snap.profile_cache_hits),
    );
    t.note(
        "server_result_hits",
        format!("{} of {result_lookups}", snap.result_cache_hits),
    );

    for pass in [&plain, &traced] {
        t.attempted += pass.answered.len();
        t.failed += verify_service(&pass.answered)?.0;
    }
    let profiles = reference_profiles(traced.answered.iter().map(|a| &a.request.config), nproc());

    // Replay of the service's captured profiles onto the placements its
    // requests asked for: the profile-cache-hit path.
    let reps = 5;
    let s = timed_median(reps, || {
        for a in &traced.answered {
            let c = &a.request.config;
            let profile = &profiles[&NumericsKey::of(c)];
            black_box(replay_profile_with(
                profile,
                c.machine,
                c.p,
                PlanLayouts::chem(a.request.layout),
            ));
        }
    });
    t.metric(
        "plan.replay_ms",
        s / traced.answered.len() as f64 * 1e3,
        "ms",
    );
    Ok(())
}

// ---------------------------------------------------------- fabric

/// A loopback proxy that forwards every connection to `target` and
/// counts the bytes it carries in both directions.
struct CountingProxy {
    addr: SocketAddr,
    bytes: Arc<AtomicU64>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl CountingProxy {
    /// Forward up to `conns` connections to `target`.
    fn start(target: SocketAddr, conns: usize) -> CountingProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let bytes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&bytes);
        let accept = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            for _ in 0..conns {
                let Ok((down, _)) = listener.accept() else {
                    break;
                };
                let Ok(up) = TcpStream::connect(target) else {
                    break;
                };
                down.set_nodelay(true).ok();
                up.set_nodelay(true).ok();
                for (src, dst) in [(&down, &up), (&up, &down)] {
                    let (src, dst) = (
                        src.try_clone().expect("clone socket"),
                        dst.try_clone().expect("clone socket"),
                    );
                    let counter = Arc::clone(&counter);
                    pumps.push(std::thread::spawn(move || pump(src, dst, &counter)));
                }
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        CountingProxy {
            addr,
            bytes,
            accept: Some(accept),
        }
    }

    /// Wait for every forwarded connection to close; total bytes.
    fn finish(mut self) -> u64 {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.bytes.load(Ordering::Relaxed)
    }
}

fn pump(mut src: TcpStream, mut dst: TcpStream, counter: &AtomicU64) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                counter.fetch_add(n as u64, Ordering::Relaxed);
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = dst.shutdown(Shutdown::Write);
    let _ = src.shutdown(Shutdown::Read);
}

fn fabric_layers(t: &mut Traced, seed: u64) -> Result<(), String> {
    let direct = |a: SocketAddr| a;
    let plain = fabric_pass(seed, Stop::Count(1), &Obs::off(), &direct);
    let (_sink, obs) = traced_obs();
    let traced = fabric_pass(seed, Stop::Count(1), &obs, &direct);
    obs.flush();
    let wall = |bs: &[Batch]| bs.iter().map(|b| b.wall_s).sum::<f64>();
    t.metric("trace.fabric_overhead_s", wall(&traced) - wall(&plain), "s");

    // The same batch once more, untraced, through the counting proxy.
    let proxy = std::sync::Mutex::new(None);
    let via = |target: SocketAddr| {
        let p = CountingProxy::start(target, crate::workloads::FABRIC_SHARDS);
        let addr = p.addr;
        *proxy
            .lock()
            .expect("a thread panicked while holding the lock") = Some(p);
        addr
    };
    let counted = fabric_pass(seed, Stop::Count(1), &Obs::off(), &via);
    let bytes = proxy
        .into_inner()
        .expect("a thread panicked while holding the lock")
        .map_or(0, CountingProxy::finish);
    let jobs: usize = counted.iter().map(|b| b.jobs.len()).sum();
    t.metric(
        "fabric.wire_bytes_per_job",
        bytes as f64 / jobs.max(1) as f64,
        "B",
    );

    for pass in [&plain, &counted] {
        let check = verify_fabric(pass)?;
        t.attempted += check.attempted;
        t.failed += check.failed;
    }
    let check = verify_fabric(&traced)?;
    t.attempted += check.attempted;
    t.failed += check.failed;

    // Latency anatomy of the traced batch's verified jobs: exec share of
    // shard time, and what queued + exec + wire + reply leaves
    // unexplained.
    let mut exec_us = 0.0;
    let mut residuals = Vec::new();
    for r in check.verified.iter().flatten() {
        let a = r.anatomy.expect("verified reports have an anatomy");
        exec_us += a.exec_us as f64;
        let e2e = a.end_to_end_ms as f64 * 1e3;
        let parts = a.queued_ms as f64 * 1e3 + (a.exec_us + a.wire_us + a.reply_us) as f64;
        residuals.push((e2e - parts) / e2e);
    }
    let shard_us = crate::workloads::FABRIC_SHARDS as f64 * wall(&traced) * 1e6;
    t.metric("fabric.exec_share", exec_us / shard_us, "frac");
    t.metric("fabric.anatomy_residual_frac", median(&residuals), "frac");
    t.note("anatomy_jobs", residuals.len());

    // Codec costs on a job of this workload's shape: the Progress frame
    // a shard sends after the second-to-last hour, and its checkpoint.
    let (config, _) = FabricStream::new(seed).next_batch().remove(0);
    let mut partial = config.clone();
    partial.hours = gen::FABRIC.hours - 1;
    let (_, profile, checkpoint) = run_resumable_with(&partial, None, ExecSpec::serial());
    let ckpt_bytes = checkpoint.encode().len();
    let s = timed_median(50, || drop(black_box(checkpoint.encode())));
    t.metric("checkpoint.encode_us", s * 1e6, "us");
    t.metric("checkpoint.bytes", ckpt_bytes as f64, "B");
    let msg = Msg::Progress {
        job: 1,
        ctx: Default::default(),
        sent_us: 0,
        hour_us: 0,
        resume: Box::new(ResumePoint {
            checkpoint,
            partial: profile,
        }),
    };
    let payload = msg.encode();
    let s = timed_median(50, || drop(black_box(msg.encode())));
    t.metric("fabric.progress_encode_us", s * 1e6, "us");
    let s = timed_median(50, || {
        black_box(Msg::decode(msg.tag(), &payload).is_ok());
    });
    t.metric("fabric.progress_decode_us", s * 1e6, "us");
    t.verdict(
        "progress frame round trip",
        match Msg::decode(msg.tag(), &payload) {
            Ok(back) if back.encode() == payload => Ok(()),
            Ok(_) => Err("re-encoded frame differs".to_string()),
            Err(e) => Err(e.to_string()),
        },
    );
    Ok(())
}
