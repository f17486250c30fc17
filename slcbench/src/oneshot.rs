//! `oneshot_exact`: generated loops compiled one at a time, in-process on
//! one thread, along the path `slc --scheduler exact FILE` followed by
//! `slc verify --scheduler exact FILE` takes: parse, exact plan, render,
//! static verification with certificate re-check. `sat`, `exact`,
//! `analysis` and `verify` do nearly all of the work; `machine`, `sim` and
//! `serve` do none.

use crate::common::{
    bypassed, end_to_end, frac, innermost_loops, layer_common, section, timed_setup,
    MetricSet, Outcome, PlanTally, Shares, Timed,
};
use crate::gen::{gen_loops, GenLoop, Shape};
use crate::layers::{Front, Probe};
use slc::analysis::{build_ddg, build_ddg_ranged, partition_mis, DepStats, LoopRange};
use slc::ast::{parse_program, to_source, ForLoop};
use slc::exact::{check_certificate, Dep, ExactScheduler};
use slc::pipeline::{verify_report, PassManager, PassPlan};
use slc::sim::astinterp::equivalent;
use slc::slms::{constraints_of, placement_mii, SchedulerKind, SlmsConfig};
use slc::trace::Tracer;
use std::time::Instant;

/// Programs in the pool. Every program is compiled at least once in a
/// run, so the pool is the sample a run's figures stand on: compile times
/// are heavy-tailed, and a small pool would make runs with different seeds
/// spread widely.
pub const POOL: usize = 6000;

/// Pool programs the traced run replays through the layers.
pub const PROBED: usize = 1500;

/// Bodies of at most 6 statements: exact scheduling time grows steeply
/// with the number of MIs (a 7-MI body already costs three times a 6-MI
/// one on average, with a tail ten times its mean; about 1 s at 12 MIs and
/// 30 s at 16 MIs). A run must finish in a bounded time and still compile
/// enough programs for runs with different seeds to agree.
pub const SHAPE: Shape = Shape {
    stmts: (2, 6),
    guard_pct: 30,
    symbolic_pct: 25,
    long_pct: 30,
};

fn exact_cfg() -> SlmsConfig {
    SlmsConfig {
        scheduler: SchedulerKind::Exact,
        ..SlmsConfig::default()
    }
}

pub struct State {
    pool: Vec<GenLoop>,
}

/// Set-up: draw the pool, check that every program parses, and warm the
/// path on one built-in program (the same for every seed).
pub fn setup(seed: u64) -> State {
    let st = State {
        pool: gen_loops(seed, POOL, &SHAPE),
    };
    for g in &st.pool {
        parse_program(&g.source).expect("generated loops parse");
    }
    one_shot(slc::workloads::all()[0].source, &Tracer::disabled());
    st
}

/// What one program's one-shot compile and verification produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Result1 {
    pub output: String,
    pub clean: bool,
    pub report: String,
    pub tally: PlanTally,
    /// transformed loops whose exact II exceeds the heuristic II
    pub worse_than_heuristic: u64,
    pub sat_conflicts: u64,
    pub sat_decisions: u64,
    pub solves: u64,
}

/// The one-shot path for one program. None when parsing or planning
/// failed.
pub fn one_shot(src: &str, tracer: &Tracer) -> Option<Result1> {
    let cfg = exact_cfg();
    let prog = parse_program(src).ok()?;
    let (out, sink) = PassManager::new(cfg.clone())
        .with_tracer(tracer.clone())
        .run(&prog, &PassPlan::exact_only())
        .ok()?;
    let output = to_source(&out);
    let (clean, report) = verify_report(&prog, &cfg);
    let mut r = Result1 {
        output,
        clean,
        report,
        tally: PlanTally::default(),
        worse_than_heuristic: 0,
        sat_conflicts: 0,
        sat_decisions: 0,
        solves: 0,
    };
    for o in sink.all_outcomes() {
        r.tally.add(o);
        if let Ok(rep) = &o.result {
            if rep.heuristic_ii.is_some_and(|h| rep.ii > h) {
                r.worse_than_heuristic += 1;
            }
        }
        for ev in &o.trace {
            if let slc::slms::DiagEvent::ExactScheduled {
                sat_conflicts,
                sat_decisions,
                ..
            } = ev
            {
                r.solves += 1;
                r.sat_conflicts += sat_conflicts;
                r.sat_decisions += sat_decisions;
            }
        }
    }
    Some(r)
}

/// Dependence constraints of a loop body as the exact scheduler takes
/// them (no dependence removed by expansion).
fn loop_deps(f: &ForLoop, stats: &mut DepStats) -> Option<(Vec<Dep>, usize)> {
    let mis = partition_mis(&f.body).ok()?;
    let ddg = match LoopRange::of_loop(f) {
        Some(r) => build_ddg_ranged(&mis, &f.var, &r, stats).ddg,
        None => build_ddg(&mis, &f.var, f.step),
    };
    let deps = constraints_of(&ddg, &|_| false)
        .iter()
        .map(|c| Dep {
            from: c.u,
            to: c.v,
            dist: c.d,
        })
        .collect();
    Some((deps, mis.len()))
}

/// Solve a loop's constraints with the exact scheduler directly and
/// re-check the certificate against the constraints relabeled into the
/// emitted order. None when the scheduler does not apply to the loop;
/// Some(false) when the certificate does not re-check.
fn solve_and_check(deps: &[Dep], n: usize) -> Option<(bool, slc::exact::ExactResult)> {
    let cons: Vec<slc::slms::Constraint> = deps
        .iter()
        .map(|d| slc::slms::Constraint {
            u: d.from,
            v: d.to,
            d: d.dist,
        })
        .collect();
    let max_ii = placement_mii(&cons, n)?;
    let r = ExactScheduler::default().solve(deps, n, max_ii)?;
    let mut sigma = vec![0usize; n];
    for (p, &k) in r.order.iter().enumerate() {
        sigma[k] = p;
    }
    let emitted: Vec<Dep> = deps
        .iter()
        .map(|d| Dep {
            from: sigma[d.from],
            to: sigma[d.to],
            dist: d.dist,
        })
        .collect();
    let ok = check_certificate(&emitted, n, &r.certificate).is_ok() && r.ii <= max_ii;
    Some((ok, r))
}

/// Checks of the first pass, against references the program under test
/// did not produce. Returns (failed, wrong).
pub fn check_first(g: &GenLoop, r: &Result1) -> (bool, bool) {
    let mut wrong = r.worse_than_heuristic > 0;
    let prog = parse_program(&g.source).expect("generated loops parse");
    match parse_program(&r.output) {
        Ok(out) => wrong |= equivalent(&prog, &out, &[1, 2]).is_err(),
        Err(_) => wrong = true,
    }
    let mut stats = DepStats::default();
    for f in innermost_loops(&prog.stmts) {
        if let Some((deps, n)) = loop_deps(f, &mut stats) {
            if let Some((false, _)) = solve_and_check(&deps, n) {
                wrong = true;
            }
        }
    }
    (!r.clean || wrong, wrong)
}

/// What a run found out about each pool program. An operation is one pool
/// program, however often a run compiles it, so `attempted` and `failed`
/// depend only on the seed, never on how many programs fit in the time.
struct Verdicts {
    /// the first compile of each program, the reference for later ones
    first: Vec<Option<Result1>>,
    failed: Vec<bool>,
    wrong: Vec<bool>,
}

impl Verdicts {
    fn new(n: usize) -> Verdicts {
        Verdicts {
            first: Vec::with_capacity(n),
            failed: vec![false; n],
            wrong: vec![false; n],
        }
    }

    /// Check the first compile of every program against the independent
    /// references; done after the timed loop, so the checks take no time
    /// from the measurement.
    fn check(&mut self, st: &State) {
        for (k, (g, r)) in st.pool.iter().zip(&self.first).enumerate() {
            let Some(r) = r else {
                self.failed[k] = true;
                continue;
            };
            let (failed, wrong) = check_first(g, r);
            if !r.clean {
                eprintln!(
                    "slcbench: verifier not clean on pool program {k}:\n{}{}",
                    g.source, r.report
                );
            }
            self.failed[k] |= failed;
            self.wrong[k] |= wrong;
        }
    }

    /// Write the per-program verdicts into `t`'s operation counts.
    fn count_into(&self, t: &mut Timed) {
        let count = |v: &[bool]| v.iter().filter(|&&b| b).count() as u64;
        t.attempted = self.failed.len() as u64;
        t.failed = count(&self.failed);
        t.wrong = count(&self.wrong);
    }
}

/// Compile pool programs one at a time, in pool order and round again,
/// until `seconds` have passed and every program has been compiled once;
/// one latency sample per compile. Later compiles of a program must
/// reproduce its first.
fn measure(st: &State, seconds: f64, tracer: &Tracer, v: &mut Verdicts) -> Timed {
    let n = st.pool.len();
    let mut t = Timed::default();
    let start = Instant::now();
    let mut k = 0;
    while v.first.len() < n || start.elapsed().as_secs_f64() < seconds {
        let g = &st.pool[k % n];
        let (r, ms) = section(&mut t, || one_shot(&g.source, tracer));
        if r.is_some() {
            t.add_ops(1);
            t.lat_ms.push(ms);
        }
        if v.first.len() < n {
            v.first.push(r);
        } else if v.first[k % n] != r {
            v.failed[k % n] = true;
            v.wrong[k % n] = true;
        }
        k += 1;
    }
    t
}

fn quality_of(first: &[Option<Result1>]) -> PlanTally {
    let mut tally = PlanTally::default();
    for r in first.iter().flatten() {
        tally.merge(&r.tally);
    }
    tally
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (st, setup_s) = timed_setup(|| setup(seed));
    let mut v = Verdicts::new(st.pool.len());
    if !trace {
        let mut t = measure(&st, seconds, &Tracer::disabled(), &mut v);
        v.check(&st);
        v.count_into(&mut t);
        let m = end_to_end(setup_s, &t, 90.0, &quality_of(&v.first).quality());
        return Outcome {
            correct: t.wrong == 0,
            attempted: t.attempted,
            failed: t.failed,
            metrics: m.0,
        };
    }
    let untraced = measure(&st, seconds / 2.0, &Tracer::disabled(), &mut v);
    let lib_tracer = Tracer::enabled();
    let traced = measure(&st, seconds / 2.0, &lib_tracer, &mut v);
    v.check(&st);
    let probe = Probe::new(Tracer::enabled());
    let mut m = MetricSet::default();
    let probe_ok = probe_layers(&st, &probe, &mut m, &v.first);
    let mut shares = Shares::default();
    st.pool.iter().for_each(|g| shares.add(g, 1));
    shares.put(&mut m, 0.0);
    let trace_ok = layer_common(
        &mut m,
        &probe,
        &lib_tracer,
        &untraced,
        &traced,
        "oneshot_exact",
    );
    let bypass_ok = bypassed(&lib_tracer, &["machine", "sim", "serve", "pipeline"]);
    let mut all = Timed::default();
    v.count_into(&mut all);
    Outcome {
        correct: all.wrong == 0 && probe_ok && trace_ok && bypass_ok,
        attempted: all.attempted,
        failed: all.failed,
        metrics: m.0,
    }
}

/// Replay the first [`PROBED`] pool programs through each layer's public
/// functions, one `bench` span per call. Returns false when a call failed or a check did not hold.
fn probe_layers(st: &State, probe: &Probe, m: &mut MetricSet, first: &[Option<Result1>]) -> bool {
    let cfg = exact_cfg();
    let pm = PassManager::new(cfg.clone());
    let mut ok = true;
    let mut front = Front::default();
    let mut obligations = 0u64;
    for g in st.pool.iter().take(PROBED) {
        let Some((prog, _)) = front.run(probe, &g.source, &pm, &PassPlan::exact_only()) else {
            ok = false;
            continue;
        };
        for f in innermost_loops(&prog.stmts) {
            if let Some((deps, n)) = loop_deps(f, &mut DepStats::default()) {
                if let Some((checked, _)) =
                    probe.call("exact.solve", 1.0, || solve_and_check(&deps, n))
                {
                    ok &= checked;
                }
            }
        }
        let verdict = probe.call("verify.verify", 0.0, || {
            slc::verify::verify_slms_program(&prog, &cfg)
        });
        obligations += verdict.obligation_count() as u64;
        probe.add_units("verify.verify", verdict.obligation_count() as f64);
    }
    let solves: u64 = first.iter().flatten().map(|r| r.solves).sum();
    let conflicts: u64 = first.iter().flatten().map(|r| r.sat_conflicts).sum();
    let decisions: u64 = first.iter().flatten().map(|r| r.sat_decisions).sum();

    front.put(probe, m);
    m.put(
        "exact.solve_ms_per_loop",
        probe.per_unit("exact.solve", 1e6),
        "ms",
    );
    m.put(
        "exact.sat_conflicts_per_solve",
        frac(conflicts as f64, solves as f64),
        "count",
    );
    m.put(
        "exact.sat_decisions_per_solve",
        frac(decisions as f64, solves as f64),
        "count",
    );
    m.put(
        "verify.us_per_obligation",
        probe.per_unit("verify.verify", 1e3),
        "us",
    );
    m.put("verify.obligations", obligations as f64, "count");
    ok
}
