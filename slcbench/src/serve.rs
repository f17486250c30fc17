//! `serve_mixed`: an in-process `slc serve` daemon on loopback with two
//! closed-loop clients (editors and build tools wait for each reply). The
//! seeded request stream mixes warm compile requests from a small hot pool,
//! compile requests for fresh generated sources (a cold plan each) and
//! `verify` requests (never cached). `serve`, the `ast` renderer and the
//! `pipeline` stores dominate; `machine` and `sim` never run.

use crate::common::{
    bypassed, end_to_end, frac, layer_common, run_for, timed_setup, MetricSet, Outcome, PlanTally,
    Quality, Shares, Timed, Window, WINDOW_NS,
};
use crate::gen::{gen_loop, gen_loops, GenLoop, Rng, Shape};
use crate::layers::{put_hit_fracs, Front, Probe};
use crate::measure::{cpu_ns, Stopwatch};
use slc::ast::{parse_program, to_source};
use slc::pipeline::{verify_report, CompileService, PassManager, PassPlan};
use slc::serve::{
    Client, Endpoint, Request, RequestOpts, Response, ServeConfig, Server, ServerHandle,
};
use slc::sim::astinterp::equivalent;
use slc::slms::SlmsConfig;
use slc::trace::Tracer;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// Programs in the hot pool (warm after set-up).
pub const N_HOT: usize = 256;
/// Artifact-store capacity of the daemon (`slc serve --cache-capacity`): a
/// long-running daemon bounds its footprint, and the bound keeps memory
/// independent of how many fresh sources a run sends. It holds the hot
/// pool many times over, so hot requests stay warm.
pub const CACHE_CAPACITY: usize = 1024;
/// Request mix in percent: hot compile, fresh compile, verify.
pub const MIX: (i64, i64, i64) = (80, 15, 5);

pub const SHAPE: Shape = Shape {
    stmts: (2, 10),
    guard_pct: 30,
    symbolic_pct: 25,
    long_pct: 30,
};

/// Request options of a plain `slc FILE` / `slc verify FILE` call.
fn opts() -> RequestOpts {
    RequestOpts {
        filter: true,
        ..RequestOpts::default()
    }
}

fn plan_and_cfg() -> (PassPlan, SlmsConfig) {
    opts().resolve().expect("default request options resolve")
}

/// A running daemon with connected clients.
pub struct Daemon {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
}

impl Daemon {
    /// Spawn on an ephemeral loopback port, connect the clients, fill the
    /// stores to capacity with sources the measured stream never sends (so
    /// the measurement sees the steady state, where each fresh source
    /// evicts an old one), then warm the hot pool. Returns None when any
    /// step fails.
    fn start(hot: &[GenLoop], seed: u64, tracer: Tracer) -> Option<Daemon> {
        let handle = Server::spawn(
            &Endpoint::Tcp("127.0.0.1:0".to_string()),
            ServeConfig {
                capacity: Some(CACHE_CAPACITY),
                ..ServeConfig::default()
            },
            tracer,
        )
        .ok()?;
        let mut d = Daemon {
            handle: Some(handle),
            clients: Vec::new(),
        };
        let addr = d.handle.as_ref()?.local_addr()?.to_string();
        for _ in 0..CLIENTS {
            d.clients.push(Client::connect_tcp(&addr).ok()?);
        }
        let mut fill = Rng::new(seed ^ 0xf111_0000);
        let filler: Vec<String> = (0..CACHE_CAPACITY)
            .map(|_| gen_loop(&mut fill, &SHAPE).source)
            .collect();
        for source in filler
            .into_iter()
            .chain(hot.iter().map(|g| g.source.clone()))
        {
            let req = Request::Compile {
                source,
                opts: opts(),
            };
            if !matches!(d.clients[0].request(&req), Ok(Response::Compile { .. })) {
                return None;
            }
        }
        Some(d)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.stop();
            let stats = h.wait();
            if !stats.drained_clean {
                eprintln!("slcbench: daemon drain left {} requests", stats.abandoned);
            }
        }
    }
}

/// Reference answers for the hot pool, computed in-process the way the
/// one-shot CLI computes them.
struct Reference {
    compile: Vec<String>,
    verify: Vec<(bool, String)>,
    tally: PlanTally,
    /// hot programs whose SLMS output is not equivalent to the source
    wrong: u64,
}

fn one_shot(src: &str) -> Option<(String, slc::ast::Program, slc::ast::Program, PlanTally)> {
    let (plan, cfg) = plan_and_cfg();
    let prog = parse_program(src).ok()?;
    let (out, sink) = PassManager::new(cfg).run(&prog, &plan).ok()?;
    let mut tally = PlanTally::default();
    sink.all_outcomes().for_each(|o| tally.add(o));
    Some((to_source(&out), prog, out, tally))
}

fn reference(hot: &[GenLoop]) -> Reference {
    let (_, cfg) = plan_and_cfg();
    let mut r = Reference {
        compile: Vec::new(),
        verify: Vec::new(),
        tally: PlanTally::default(),
        wrong: 0,
    };
    for g in hot {
        let (text, prog, out, tally) = one_shot(&g.source).expect("hot program compiles");
        if equivalent(&prog, &out, &[1, 2]).is_err() {
            r.wrong += 1;
        }
        r.tally.merge(&tally);
        r.compile.push(text);
        r.verify.push(verify_report(&prog, &cfg));
    }
    r
}

pub struct State {
    hot: Vec<GenLoop>,
    daemon: Daemon,
    seed: u64,
}

fn start(seed: u64, tracer: Tracer) -> State {
    let hot = gen_loops(seed, N_HOT, &SHAPE);
    let daemon = Daemon::start(&hot, seed, tracer).expect("daemon starts and answers the hot pool");
    State { hot, daemon, seed }
}

#[derive(Clone, Copy)]
enum Kind {
    Hot(usize),
    Fresh,
    Verify(usize),
}

/// What one client saw, for the checks that run after the clock stops.
#[derive(Default)]
struct ClientLog {
    t: Timed,
    /// response fingerprint of every fresh compile request, in order
    /// (None when it failed); the programs are drawn again from the
    /// client's seeded stream when they are checked
    fresh: Vec<Option<u64>>,
    /// compile requests sent per hot-pool program
    hot_sent: Vec<u64>,
}

/// The stream of client `k`: the same seed gives the same requests.
fn client_rngs(seed: u64, k: usize) -> (Rng, Rng) {
    let mut base = Rng::new(seed ^ (0xc11e_0000 + k as u64));
    (base.fork(), base.fork())
}

fn drive(
    st: &State,
    client: &mut Client,
    k: usize,
    refs: &Reference,
    seconds: f64,
    corrupt_every: Option<u64>,
    done: &AtomicU64,
) -> ClientLog {
    let (mut pick, mut fresh_rng) = client_rngs(st.seed, k);
    let mut log = ClientLog {
        hot_sent: vec![0; N_HOT],
        ..ClientLog::default()
    };
    let t = run_for(seconds, |t| {
        let r = pick.range(0, 99);
        let (kind, source) = if r < MIX.0 {
            let i = pick.range(0, N_HOT as i64 - 1) as usize;
            log.hot_sent[i] += 1;
            (Kind::Hot(i), st.hot[i].source.clone())
        } else if r < MIX.0 + MIX.1 {
            (Kind::Fresh, gen_loop(&mut fresh_rng, &SHAPE).source)
        } else {
            let i = pick.range(0, N_HOT as i64 - 1) as usize;
            (Kind::Verify(i), st.hot[i].source.clone())
        };
        let req = match kind {
            Kind::Verify(_) => Request::Verify {
                source,
                opts: opts(),
            },
            _ => Request::Compile {
                source,
                opts: opts(),
            },
        };
        let sent = Instant::now();
        let resp = client.request(&req);
        let ms = sent.elapsed().as_nanos() as f64 / 1e6;
        t.attempted += 1;
        // a lost connection or a typed error (busy, timeout, ...) is a
        // failed request, not a wrong answer
        let mut resp = match resp {
            Ok(r) if !r.is_error() => r,
            _ => {
                t.failed += 1;
                if let Kind::Fresh = kind {
                    log.fresh.push(None);
                }
                return;
            }
        };
        t.ops += 1;
        done.fetch_add(1, Ordering::Relaxed);
        t.lat_ms.push(ms);
        if corrupt_every.is_some_and(|n| t.attempted % n == 0) {
            if let Response::Compile { output, .. } | Response::Verify { output, .. } = &mut resp {
                output.push(' ');
            }
        }
        let ok = match (kind, resp) {
            (Kind::Hot(i), Response::Compile { output, .. }) => output == refs.compile[i],
            (Kind::Verify(i), Response::Verify { clean, output }) => {
                (clean, output) == refs.verify[i]
            }
            (Kind::Fresh, Response::Compile { output, .. }) => {
                log.fresh
                    .push(Some(slc::analysis::fingerprint_str(&output)));
                true
            }
            _ => false,
        };
        if !ok {
            t.failed += 1;
            t.wrong += 1;
        }
    });
    log.t = t;
    log
}

/// What the deferred check of one client's fresh requests found.
#[derive(Default)]
struct FreshCheck {
    wrong: u64,
    shares: Shares,
    /// fingerprints of the fresh sources, in the order they were sent
    sources: Vec<u64>,
}

/// Draw client `k`'s fresh programs again and check each response against
/// the one-shot reference (byte-identical) and its meaning against the
/// source.
fn check_fresh(seed: u64, k: usize, fresh: &[Option<u64>]) -> FreshCheck {
    let (_, mut rng) = client_rngs(seed, k);
    let mut c = FreshCheck::default();
    for got in fresh {
        let g = gen_loop(&mut rng, &SHAPE);
        c.shares.add(&g, 1);
        c.sources.push(slc::analysis::fingerprint_str(&g.source));
        let Some(got) = got else { continue };
        let ok = one_shot(&g.source).is_some_and(|(text, prog, out, _)| {
            slc::analysis::fingerprint_str(&text) == *got && equivalent(&prog, &out, &[1]).is_ok()
        });
        c.wrong += u64::from(!ok);
    }
    c
}

/// Both clients for `seconds`, then the deferred checks. The clients run
/// side by side, so wall and process CPU time are read for the whole
/// window, once a second.
fn measure(
    st: &mut State,
    refs: &Reference,
    seconds: f64,
    corrupt_every: Option<u64>,
) -> (Timed, (Shares, f64)) {
    let clients = std::mem::take(&mut st.daemon.clients);
    let st_ref: &State = st;
    let done = AtomicU64::new(0);
    let whole = Stopwatch::start();
    let mut windows = Vec::new();
    let results: Vec<(Client, ClientLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(k, mut c)| {
                let done = &done;
                s.spawn(move || {
                    let log = drive(st_ref, &mut c, k, refs, seconds, corrupt_every, done);
                    (c, log)
                })
            })
            .collect();
        let deadline = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let (mut ops0, mut cpu0, mut t0) = (0, cpu_ns(), start);
        while t0 - start < deadline {
            let next = (t0 - start + Duration::from_nanos(WINDOW_NS)).min(deadline);
            std::thread::sleep((start + next).saturating_duration_since(Instant::now()));
            let (ops, cpu, now) = (done.load(Ordering::Relaxed), cpu_ns(), Instant::now());
            windows.push(Window {
                ops: ops - ops0,
                wall_ns: (now - t0).as_nanos() as u64,
                cpu_ns: cpu - cpu0,
            });
            (ops0, cpu0, t0) = (ops, cpu, now);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (wall_ns, cpu_ns) = whole.stop();
    let mut t = Timed::default();
    let mut logs = Vec::new();
    for (c, log) in results {
        st.daemon.clients.push(c);
        t.absorb(&log.t);
        logs.push(log);
    }
    t.wall_ns = wall_ns;
    t.cpu_ns = cpu_ns;
    t.windows = windows;
    let seed = st.seed;
    let checks: Vec<FreshCheck> = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(k, l)| s.spawn(move || check_fresh(seed, k, &l.fresh)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let wrong: u64 = checks.iter().map(|c| c.wrong).sum();
    t.wrong += wrong;
    t.failed += wrong;
    (t, sent_shares(&st.hot, &logs, &checks))
}

/// Input shares of the requests the clients sent, and the share of compile
/// requests whose source had reached the daemon before (the hot pool was
/// sent once while warming up).
fn sent_shares(hot: &[GenLoop], logs: &[ClientLog], checks: &[FreshCheck]) -> (Shares, f64) {
    let mut shares = Shares::default();
    let mut hot_requests = 0;
    for (i, g) in hot.iter().enumerate() {
        let n: u64 = logs.iter().map(|l| l.hot_sent[i]).sum();
        if n > 0 {
            shares.add(g, n);
        }
        hot_requests += n;
    }
    let mut seen: HashSet<u64> = hot
        .iter()
        .map(|g| slc::analysis::fingerprint_str(&g.source))
        .collect();
    let (mut repeats, mut total) = (hot_requests, hot_requests);
    for c in checks {
        shares.merge(&c.shares);
        for fp in &c.sources {
            total += 1;
            repeats += u64::from(!seen.insert(*fp));
        }
    }
    (shares, frac(repeats as f64, total as f64))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    run_with(seed, seconds, trace, None)
}

/// [`run`], optionally corrupting every `n`-th response before it is
/// checked (the self-test's proof that the checks see wrong output).
pub fn run_with(seed: u64, seconds: f64, trace: bool, corrupt_every: Option<u64>) -> Outcome {
    let (mut st, setup_s) = timed_setup(|| start(seed, Tracer::disabled()));
    let refs = reference(&st.hot);
    let quality: Quality = refs.tally.quality();
    if !trace {
        let (t, _) = measure(&mut st, &refs, seconds, corrupt_every);
        let m = end_to_end(setup_s, &t, 99.0, &quality);
        return Outcome {
            correct: refs.wrong == 0 && t.wrong == 0,
            attempted: t.attempted,
            failed: t.failed,
            metrics: m.0,
        };
    }
    let (untraced, (shares, repeat_frac)) = measure(&mut st, &refs, seconds / 2.0, corrupt_every);
    let lib_tracer = Tracer::enabled();
    let mut traced_st = start(seed, lib_tracer.clone());
    let (traced, _) = measure(&mut traced_st, &refs, seconds / 2.0, corrupt_every);
    drop(traced_st);
    let probe = Probe::new(Tracer::enabled());
    let mut m = MetricSet::default();
    let probe_ok = probe_layers(&mut st, &probe, &mut m);
    shares.put(&mut m, repeat_frac);
    let trace_ok = layer_common(
        &mut m,
        &probe,
        &lib_tracer,
        &untraced,
        &traced,
        "serve_mixed",
    );
    let bypass_ok = bypassed(&lib_tracer, &["machine", "sim", "exact"]);
    let mut all = untraced.clone();
    all.absorb(&traced);
    Outcome {
        correct: refs.wrong == 0 && all.wrong == 0 && probe_ok && trace_ok && bypass_ok,
        attempted: all.attempted,
        failed: all.failed,
        metrics: m.0,
    }
}

/// Fresh programs the probe sends through the front layers.
const PROBE_FRESH: usize = 32;
/// Requests of the fixed sequence the probe sends to an in-process service.
const PROBE_REQUESTS: usize = 400;
/// Warm round trips per hot-pool program for `serve.overhead_us`.
const PROBE_ROUNDS: usize = 2;

fn probe_layers(st: &mut State, probe: &Probe, m: &mut MetricSet) -> bool {
    let (plan, cfg) = plan_and_cfg();
    let pm = PassManager::new(cfg.clone());
    let mut ok = true;
    let mut rng = Rng::new(st.seed ^ 0x9e0b_e000);
    let fresh: Vec<GenLoop> = (0..PROBE_FRESH)
        .map(|_| gen_loop(&mut rng, &SHAPE))
        .collect();
    let mut front = Front::default();
    let mut obligations = 0u64;
    for g in st.hot.iter().chain(&fresh) {
        let Some((prog, _)) = front.run(probe, &g.source, &pm, &plan) else {
            ok = false;
            continue;
        };
        let verdict = probe.call("verify.verify", 0.0, || {
            slc::verify::verify_slms_program(&prog, &cfg)
        });
        obligations += verdict.obligation_count() as u64;
        probe.add_units("verify.verify", verdict.obligation_count() as f64);
    }
    // a fixed request sequence through an in-process service set up like
    // the daemon: the store hit shares after warm-up repeat exactly for a
    // seed
    let svc = CompileService::bounded(CACHE_CAPACITY);
    let tracer = Tracer::disabled();
    for g in &st.hot {
        ok &= svc
            .compile_request(&g.source, &plan, &cfg, false, &tracer)
            .is_ok();
    }
    let warm = svc.cache_report();
    let (mut pick, mut fresh_rng) = client_rngs(st.seed, 0);
    probe.call("pipeline.service", PROBE_REQUESTS as f64, || {
        for _ in 0..PROBE_REQUESTS {
            // the same draws as client 0's stream
            let r = pick.range(0, 99);
            ok &= if r < MIX.0 {
                let i = pick.range(0, N_HOT as i64 - 1) as usize;
                svc.compile_request(&st.hot[i].source, &plan, &cfg, false, &tracer)
                    .is_ok()
            } else if r < MIX.0 + MIX.1 {
                let g = gen_loop(&mut fresh_rng, &SHAPE);
                svc.compile_request(&g.source, &plan, &cfg, false, &tracer)
                    .is_ok()
            } else {
                let i = pick.range(0, N_HOT as i64 - 1) as usize;
                svc.verify_request(&st.hot[i].source, &cfg, &tracer).is_ok()
            };
        }
    });
    put_hit_fracs(m, &svc.cache_report(), Some(&warm));
    // daemon overhead: warm round trip minus the in-process call on the
    // same (warm) service
    let service = st
        .daemon
        .handle
        .as_ref()
        .expect("daemon is running")
        .service()
        .clone();
    let client = &mut st.daemon.clients[0];
    for _ in 0..PROBE_ROUNDS {
        for g in &st.hot {
            let req = Request::Compile {
                source: g.source.clone(),
                opts: opts(),
            };
            let resp = probe.call("serve.round_trip", 1.0, || client.request(&req));
            ok &= matches!(resp, Ok(Response::Compile { .. }));
            let local = probe.call("pipeline.compile_request", 1.0, || {
                service.compile_request(&g.source, &plan, &cfg, false, &tracer)
            });
            ok &= local.is_ok();
        }
    }
    let counters = match client.request(&Request::Stats) {
        Ok(Response::Stats { counters }) => counters,
        _ => {
            ok = false;
            slc::trace::CounterRegistry::new()
        }
    };

    front.put(probe, m);
    m.put(
        "verify.us_per_obligation",
        probe.per_unit("verify.verify", 1e3),
        "us",
    );
    m.put("verify.obligations", obligations as f64, "count");
    let overhead =
        probe.per_unit("serve.round_trip", 1e3) - probe.per_unit("pipeline.compile_request", 1e3);
    m.put("serve.overhead_us", overhead, "us");
    m.put(
        "serve.rejections",
        counters.get("serve.rejections") as f64,
        "count",
    );
    m.put(
        "serve.timeouts",
        counters.get("serve.timeouts") as f64,
        "count",
    );
    ok
}
