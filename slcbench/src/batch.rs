//! `batch_matrix`: the paper-reproduction path. The built-in corpus plus a
//! seeded draw of generated loops, evaluated over the full 4 machines ×
//! 3 personalities × {orig, slms} matrix on a fresh `BatchEngine` each
//! pass. `machine` (compile) and `sim` do most of the work; `serve`,
//! `exact` and `verify` do none of it.

use crate::common::{
    bypassed, end_to_end, frac, layer_common, run_for, section, timed_setup, MetricSet, Outcome,
    PlanTally, Quality, Shares, Timed,
};
use crate::gen::{gen_loops, GenLoop, Shape};
use crate::layers::{put_hit_fracs, Front, Probe};
use crate::measure::{geomean, sha256_hex};
use slc::ast::{parse_program, Program};
use slc::machine::ir::Lir;
use slc::machine::{list_schedule, lower_program, modulo_schedule};
use slc::pipeline::{
    compile_lir, BatchConfig, BatchEngine, BatchReport, CompilerKind, PassManager,
};
use slc::sim::astinterp::equivalent;
use slc::sim::{simulate_with, SimFidelity};
use slc::slms::SlmsConfig;
use slc::trace::Tracer;
use slc::workloads::{Suite, Workload};
use std::collections::BTreeMap;

/// SHA-256 of the canonical report of the built-in corpus over the full
/// matrix on a fresh engine (`slc batch --out`).
pub const CANONICAL_DIGEST: &str =
    "0715a9c96b30306d1c1803da5f9740b2d5bdc901a31f4b031cc798c0bc5a31fd";

/// Engine worker threads.
pub const THREADS: usize = 2;

/// Generated loops per run, each evaluated over all 24 matrix cells.
pub const N_GEN: usize = 22;

/// Constant trip counts only: the machine lowering rejects symbolic bounds.
pub const SHAPE: Shape = Shape {
    stmts: (2, 12),
    guard_pct: 30,
    symbolic_pct: 0,
    long_pct: 40,
};

/// Inputs and reference results of one run.
pub struct State {
    corpus: BatchConfig,
    generated: BatchConfig,
    gen: Vec<GenLoop>,
    gen_digest: String,
    quality: Quality,
    /// wrong outputs found while setting up (generated SLMS output not
    /// equivalent to its source, corpus digest drift)
    wrong: u64,
}

fn config(workloads: Vec<Workload>) -> BatchConfig {
    BatchConfig {
        workloads,
        threads: Some(THREADS),
        ..BatchConfig::full_matrix()
    }
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Generated loops as workloads (`Workload` holds `'static` text; a run
/// leaks a few KB per setup).
fn as_workloads(gen: &[GenLoop]) -> Vec<Workload> {
    gen.iter()
        .enumerate()
        .map(|(k, g)| Workload {
            name: leak(format!("gen_{k}")),
            suite: Suite::Paper,
            source: leak(g.source.clone()),
        })
        .collect()
}

/// One matrix pass on a fresh engine: the corpus, then the generated loops.
fn pass(st: &State, tracer: &Tracer) -> (BatchEngine, BatchReport, BatchReport) {
    let engine = BatchEngine::new();
    let corpus = engine.run_traced(&st.corpus, tracer);
    let generated = engine.run_traced(&st.generated, tracer);
    (engine, corpus, generated)
}

fn speedups(reports: &[&BatchReport], out: &mut Vec<f64>) {
    let mut orig: BTreeMap<(String, String, &str), u64> = BTreeMap::new();
    for r in reports {
        for c in &r.cells {
            let Ok(m) = &c.outcome else { continue };
            let key = (c.id.workload.clone(), c.id.machine.clone(), c.id.compiler);
            if c.id.variant == "orig" {
                orig.insert(key, m.cycles);
            } else if let Some(&o) = orig.get(&key) {
                out.push(o as f64 / m.cycles.max(1) as f64);
            }
        }
    }
}

pub fn setup(seed: u64) -> State {
    let gen = gen_loops(seed, N_GEN, &SHAPE);
    let mut st = State {
        corpus: config(slc::workloads::all()),
        generated: config(as_workloads(&gen)),
        gen,
        gen_digest: String::new(),
        quality: Quality {
            speedup_geomean: 1.0,
            transformed_frac: 0.0,
            ii_mean: 0.0,
        },
        wrong: 0,
    };
    // warm-up pass; its reports are the reference for every later pass
    let (engine, corpus, generated) = pass(&st, &Tracer::disabled());
    if sha256_hex(corpus.to_json().as_bytes()) != CANONICAL_DIGEST {
        eprintln!("slcbench: corpus report digest differs from {CANONICAL_DIGEST}");
        st.wrong += 1;
    }
    st.gen_digest = sha256_hex(generated.to_json().as_bytes());
    let mut ratios = Vec::new();
    speedups(&[&corpus, &generated], &mut ratios);
    let mut tally = PlanTally::default();
    let pm = PassManager::new(SlmsConfig::default());
    let plan = &st.generated.plan;
    for w in st.corpus.workloads.iter().chain(&st.generated.workloads) {
        let prog = w.program();
        if let Ok((_, sink)) = pm.run(&prog, plan) {
            sink.all_outcomes().for_each(|o| tally.add(o));
        }
    }
    // the engine's own SLMS output for every generated loop must keep the
    // loop's meaning
    for w in &st.generated.workloads {
        let served = engine.service().compile_request(
            w.source,
            plan,
            &st.generated.slms,
            false,
            &Tracer::disabled(),
        );
        let ok = served
            .ok()
            .and_then(|c| parse_program(&c.output).ok())
            .is_some_and(|out| equivalent(&w.program(), &out, &[1, 2]).is_ok());
        if !ok {
            eprintln!("slcbench: SLMS output of {} is not equivalent", w.name);
            st.wrong += 1;
        }
    }
    st.quality = Quality {
        speedup_geomean: geomean(&ratios),
        transformed_frac: tally.transformed_frac(),
        ii_mean: tally.ii_mean(),
    };
    st
}

/// Passes until `seconds` have passed; one latency sample per pass.
fn measure(st: &State, seconds: f64, tracer: &Tracer) -> Timed {
    let cells = (st.corpus.n_cells() + st.generated.n_cells()) as u64;
    run_for(seconds, |t| {
        let ((engine, corpus, generated), ms) = section(t, || pass(st, tracer));
        t.lat_ms.push(ms);
        t.add_ops(cells);
        t.attempted += cells;
        let failed = (corpus.failed() + generated.failed()) as u64;
        let mut wrong = 0;
        if sha256_hex(corpus.to_json().as_bytes()) != CANONICAL_DIGEST {
            wrong += st.corpus.n_cells() as u64;
        }
        if sha256_hex(generated.to_json().as_bytes()) != st.gen_digest {
            wrong += st.generated.n_cells() as u64;
        }
        t.wrong += wrong;
        t.failed += failed.max(wrong);
        drop(engine);
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (st, setup_s) = timed_setup(|| setup(seed));
    if !trace {
        let t = measure(&st, seconds, &Tracer::disabled());
        let m = end_to_end(setup_s, &t, 90.0, &st.quality);
        return Outcome {
            correct: st.wrong == 0 && t.wrong == 0,
            attempted: t.attempted,
            failed: t.failed,
            metrics: m.0,
        };
    }
    let untraced = measure(&st, seconds / 2.0, &Tracer::disabled());
    let lib_tracer = Tracer::enabled();
    let traced = measure(&st, seconds / 2.0, &lib_tracer);
    let probe = Probe::new(Tracer::enabled());
    let mut m = MetricSet::default();
    let probe_ok = probe_layers(&st, &probe, &mut m);
    let mut shares = Shares::default();
    st.gen.iter().for_each(|g| shares.add(g, 1));
    shares.put(&mut m, 0.0);
    let trace_ok = layer_common(
        &mut m,
        &probe,
        &lib_tracer,
        &untraced,
        &traced,
        "batch_matrix",
    );
    let bypass_ok = bypassed(&lib_tracer, &["serve", "exact", "verify"]);
    let mut all = untraced.clone();
    all.absorb(&traced);
    Outcome {
        correct: st.wrong == 0 && all.wrong == 0 && probe_ok && trace_ok && bypass_ok,
        attempted: all.attempted,
        failed: all.failed,
        metrics: m.0,
    }
}

fn lir_ops(items: &[Lir]) -> usize {
    items
        .iter()
        .map(|it| match it {
            Lir::Block(ops) => ops.len(),
            Lir::Loop(l) => lir_ops(&l.body),
        })
        .sum()
}

/// Every straight-line block and every innermost loop (with its flattened
/// body) of a lowered program.
fn lir_parts<'a>(
    items: &'a [Lir],
    blocks: &mut Vec<&'a [slc::machine::Op]>,
    loops: &mut Vec<(&'a slc::machine::LirLoop, Vec<slc::machine::Op>)>,
) {
    for it in items {
        match it {
            Lir::Block(ops) => blocks.push(ops),
            Lir::Loop(l) => {
                if l.body.iter().all(|b| matches!(b, Lir::Block(_))) {
                    let ops = l
                        .body
                        .iter()
                        .flat_map(|b| match b {
                            Lir::Block(ops) => ops.clone(),
                            Lir::Loop(_) => Vec::new(),
                        })
                        .collect();
                    loops.push((l, ops));
                }
                lir_parts(&l.body, blocks, loops);
            }
        }
    }
}

/// Replay the run's inputs through each layer's public functions, one
/// `bench` span per call. Returns false when a call failed.
fn probe_layers(st: &State, probe: &Probe, m: &mut MetricSet) -> bool {
    let pm = PassManager::new(SlmsConfig::default());
    let machines = &st.corpus.machines;
    let mut ok = true;
    let mut front = Front::default();
    let (mut ms_loops, mut ms_applied) = (0u64, 0u64);
    let mut ff = slc::sim::FfStats::default();
    for w in st.corpus.workloads.iter().chain(&st.generated.workloads) {
        let Some((prog, out)) = front.run(probe, w.source, &pm, &st.corpus.plan) else {
            ok = false;
            continue;
        };
        for p in [&prog, &out] {
            ok &= probe_machine(p, machines, probe, &mut ms_loops, &mut ms_applied, &mut ff);
        }
    }
    let cells = (st.corpus.n_cells() + st.generated.n_cells()) as f64;
    let (engine, corpus, generated) =
        probe.call("pipeline.batch", cells, || pass(st, &Tracer::disabled()));
    ok &= corpus.failed() == 0 && generated.failed() == 0;
    let workers: Vec<_> = corpus
        .timing
        .workers
        .iter()
        .chain(&generated.timing.workers)
        .collect();
    let busy: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let wall = (corpus.timing.wall_ns + generated.timing.wall_ns) * THREADS as u64;

    front.put(probe, m);
    m.put(
        "machine.lower_us_per_prog",
        probe.per_unit("machine.lower", 1e3),
        "us",
    );
    m.put(
        "machine.compile_us_per_op",
        probe.per_unit("machine.compile", 1e3),
        "us",
    );
    m.put(
        "machine.ims_us_per_loop",
        probe.per_unit("machine.ims", 1e3),
        "us",
    );
    m.put(
        "machine.list_us_per_block",
        probe.per_unit("machine.list", 1e3),
        "us",
    );
    m.put(
        "machine.ms_applied_frac",
        frac(ms_applied as f64, ms_loops as f64),
        "frac",
    );
    m.put("sim.ns_per_trip", probe.per_unit("sim.simulate", 1.0), "ns");
    let ff_entries = (ff.ff_hits + ff.ff_misses) as f64;
    m.put(
        "sim.ff_hit_frac",
        frac(ff.ff_hits as f64, ff_entries),
        "frac",
    );
    m.put(
        "sim.trips_skipped_frac",
        frac(ff.trips_skipped as f64, ff.trips_total as f64),
        "frac",
    );
    put_hit_fracs(m, &engine.cache_report(), None);
    m.put(
        "pipeline.worker_busy_frac",
        frac(busy as f64, wall as f64),
        "frac",
    );
    let polls: u64 = workers.iter().map(|w| w.empty_polls).sum();
    m.put("pipeline.empty_polls", polls as f64, "count");
    ok
}

fn probe_machine(
    p: &Program,
    machines: &[slc::machine::MachineDesc],
    probe: &Probe,
    ms_loops: &mut u64,
    ms_applied: &mut u64,
    ff: &mut slc::sim::FfStats,
) -> bool {
    let Ok(lir) = probe.call("machine.lower", 1.0, || lower_program(p)) else {
        return false;
    };
    let n_ops = lir_ops(&lir.items) as f64;
    for mach in machines {
        for kind in CompilerKind::ALL {
            let comp = probe.call("machine.compile", n_ops, || compile_lir(&lir, mach, kind));
            if kind == CompilerKind::OptimizingMs {
                *ms_loops += comp.loops.len() as u64;
                *ms_applied += comp.loops.iter().filter(|l| l.ms_applied).count() as u64;
            }
            let so = probe.call("sim.simulate", 0.0, || {
                simulate_with(&comp.compiled, mach, SimFidelity::Fast)
            });
            probe.add_units("sim.simulate", so.ff.trips_total as f64);
            ff.merge(&so.ff);
        }
        let (mut blocks, mut loops) = (Vec::new(), Vec::new());
        lir_parts(&lir.items, &mut blocks, &mut loops);
        for (l, ops) in &loops {
            probe.call("machine.ims", 1.0, || {
                modulo_schedule(ops, mach, &l.var, l.step)
            });
        }
        for ops in blocks {
            probe.call("machine.list", 1.0, || list_schedule(ops, mach));
        }
    }
    true
}
