//! The traced run's instruments: spans opened by the benchmark around each
//! call into a workspace layer, and the per-layer summary built from them.
//!
//! Every benchmark span has category `bench` and a name `<layer>.<what>`,
//! where `<layer>` is the crate name without its `slc-` prefix. Spans the
//! program records itself (when a layer is handed the same tracer) keep
//! their own categories and are summarised separately, as `lib_spans`.

use crate::common::{frac, innermost_loops, MetricSet, PlanTally};
use slc::analysis::{build_ddg, build_ddg_ranged, partition_mis, DepStats, LoopRange};
use slc::ast::{parse_program, to_source, Program};
use slc::pipeline::{CacheReport, PassManager, PassPlan, StoreStats};
use slc::trace::{TraceEvent, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layers the benchmark reports, in output order.
pub const LAYERS: [&str; 9] = [
    "ast", "analysis", "core", "exact", "verify", "machine", "sim", "pipeline", "serve",
];

/// The layer-specific per-layer metrics and their units. A workload that
/// bypasses a layer reports 0 for its metrics.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("ast.parse_us_per_kb", "us/KB"),
    ("ast.render_us", "us"),
    ("analysis.us_per_dep_pair", "us"),
    ("analysis.pairs_decided", "count"),
    ("analysis.sat_decided_frac", "frac"),
    ("analysis.widened_frac", "frac"),
    ("analysis.symbolic_fallback_frac", "frac"),
    ("core.plan_us_per_loop", "us"),
    ("core.mii_rounds", "count"),
    ("core.decompose_retries", "count"),
    ("exact.solve_ms_per_loop", "ms"),
    ("exact.sat_conflicts_per_solve", "count"),
    ("exact.sat_decisions_per_solve", "count"),
    ("verify.us_per_obligation", "us"),
    ("verify.obligations", "count"),
    ("machine.lower_us_per_prog", "us"),
    ("machine.compile_us_per_op", "us"),
    ("machine.ims_us_per_loop", "us"),
    ("machine.list_us_per_block", "us"),
    ("machine.ms_applied_frac", "frac"),
    ("sim.ns_per_trip", "ns"),
    ("sim.ff_hit_frac", "frac"),
    ("sim.trips_skipped_frac", "frac"),
    ("pipeline.hit_frac.parse", "frac"),
    ("pipeline.hit_frac.plan", "frac"),
    ("pipeline.hit_frac.lir", "frac"),
    ("pipeline.hit_frac.compile", "frac"),
    ("pipeline.hit_frac.sim", "frac"),
    ("pipeline.worker_busy_frac", "frac"),
    ("pipeline.empty_polls", "count"),
    ("serve.overhead_us", "us"),
    ("serve.rejections", "count"),
    ("serve.timeouts", "count"),
];

/// Add 0 for every layer metric the workload did not measure.
pub fn fill_bypassed(m: &mut MetricSet) {
    for (name, unit) in LAYER_METRICS {
        if !m.0.iter().any(|x| x.name == name) {
            m.put(name, 0.0, unit);
        }
    }
}

/// Hit share of each artifact store, counting only the lookups made after
/// the `base` snapshot when one is given.
pub fn put_hit_fracs(m: &mut MetricSet, now: &CacheReport, base: Option<&CacheReport>) {
    let b = base.copied();
    let zero = StoreStats::default();
    for (name, s, b) in [
        ("parse", now.parse, b.map_or(zero, |b| b.parse)),
        ("plan", now.slms, b.map_or(zero, |b| b.slms)),
        ("lir", now.lir, b.map_or(zero, |b| b.lir)),
        ("compile", now.compile, b.map_or(zero, |b| b.compile)),
        ("sim", now.sim, b.map_or(zero, |b| b.sim)),
    ] {
        let (hits, misses) = (s.hits - b.hits, s.misses - b.misses);
        m.put(
            &format!("pipeline.hit_frac.{name}"),
            frac(hits as f64, (hits + misses) as f64),
            "frac",
        );
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    ns: u64,
    units: f64,
}

/// Times calls into the layers and records one `bench` span per call.
pub struct Probe {
    pub tracer: Tracer,
    acc: RefCell<BTreeMap<&'static str, Acc>>,
}

impl Probe {
    /// A probe recording on `tracer`, with the calling thread as track 0.
    pub fn new(tracer: Tracer) -> Probe {
        tracer.set_thread_track(0, "bench");
        Probe {
            tracer,
            acc: RefCell::new(BTreeMap::new()),
        }
    }

    /// Run `f` as one call of `what` (`<layer>.<function>`), adding `units`
    /// of work (bytes, pairs, trips, ...) to its account.
    pub fn call<T>(&self, what: &'static str, units: f64, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.span("bench", what);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as u64;
        drop(span);
        let mut acc = self.acc.borrow_mut();
        let a = acc.entry(what).or_default();
        a.ns += ns;
        a.units += units;
        out
    }

    /// Add units of work to `what` after the call returned (when the amount
    /// is only known from its result).
    pub fn add_units(&self, what: &'static str, units: f64) {
        self.acc.borrow_mut().entry(what).or_default().units += units;
    }

    /// Nanoseconds per unit of `what`, scaled (0 when it never ran).
    pub fn per_unit(&self, what: &str, scale: f64) -> f64 {
        let a = self.acc.borrow().get(what).copied().unwrap_or_default();
        if a.units > 0.0 {
            a.ns as f64 / a.units / scale
        } else {
            0.0
        }
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Per-layer self time (span minus the part its child spans cover) and call
/// counts over the `bench` spans of a trace.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<String, LayerTime> {
    let mut per_track: BTreeMap<(u32, u32), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.cat == "bench") {
        per_track.entry((e.pid, e.tid)).or_default().push(e);
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for evs in per_track.values_mut() {
        evs.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        // open spans as (index, end); a span's direct children are the
        // spans that start inside it while it is the innermost open one
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let mut covered = vec![0u64; evs.len()];
        for (i, e) in evs.iter().enumerate() {
            while stack.last().is_some_and(|&(_, end)| end <= e.ts_ns) {
                stack.pop();
            }
            if let Some(&(parent, end)) = stack.last() {
                covered[parent] += (e.ts_ns + e.dur_ns).min(end) - e.ts_ns;
            }
            stack.push((i, e.ts_ns + e.dur_ns));
        }
        for (e, cov) in evs.iter().zip(covered) {
            let layer = e.name.split('.').next().unwrap_or("").to_string();
            let lt = out.entry(layer).or_default();
            lt.self_ns += e.dur_ns.saturating_sub(cov);
            lt.calls += 1;
        }
    }
    out
}

/// The front half of every workload's probe: parse, analyse each innermost
/// loop, plan and render, with the counts of what it saw.
#[derive(Default)]
pub struct Front {
    pub deps: DepStats,
    pub ranged: u64,
    pub symbolic: u64,
    pub tally: PlanTally,
}

impl Front {
    /// Run one program through the front layers; None when parsing or
    /// planning failed.
    pub fn run(
        &mut self,
        probe: &Probe,
        src: &str,
        pm: &PassManager,
        plan: &PassPlan,
    ) -> Option<(Program, Program)> {
        let kb = src.len() as f64 / 1024.0;
        let prog = probe.call("ast.parse", kb, || parse_program(src)).ok()?;
        let loops = innermost_loops(&prog.stmts);
        for f in &loops {
            let Ok(mis) = partition_mis(&f.body) else {
                continue;
            };
            match LoopRange::of_loop(f) {
                Some(r) => {
                    self.ranged += 1;
                    let deps = &mut self.deps;
                    let rd = probe.call("analysis.ddg", 0.0, || {
                        build_ddg_ranged(&mis, &f.var, &r, deps)
                    });
                    probe.add_units("analysis.ddg", rd.pairs.len() as f64);
                }
                None => {
                    self.symbolic += 1;
                    probe.call("analysis.ddg_symbolic", 1.0, || {
                        build_ddg(&mis, &f.var, f.step)
                    });
                }
            }
        }
        let n_loops = loops.len() as f64;
        let (out, sink) = probe
            .call("core.plan", n_loops, || pm.run(&prog, plan))
            .ok()?;
        sink.all_outcomes().for_each(|o| self.tally.add(o));
        probe.call("ast.render", 1.0, || to_source(&out));
        Some((prog, out))
    }

    /// The `ast`, `analysis` and `core` metrics.
    pub fn put(&self, probe: &Probe, m: &mut MetricSet) {
        let d = &self.deps;
        let pairs = d.pairs_decided as f64;
        m.put(
            "ast.parse_us_per_kb",
            probe.per_unit("ast.parse", 1e3),
            "us/KB",
        );
        m.put("ast.render_us", probe.per_unit("ast.render", 1e3), "us");
        m.put(
            "analysis.us_per_dep_pair",
            probe.per_unit("analysis.ddg", 1e3),
            "us",
        );
        m.put("analysis.pairs_decided", pairs, "count");
        m.put(
            "analysis.sat_decided_frac",
            frac(d.sat_decided as f64, pairs),
            "frac",
        );
        m.put(
            "analysis.widened_frac",
            frac(d.widened_to_any as f64, pairs),
            "frac",
        );
        m.put(
            "analysis.symbolic_fallback_frac",
            frac(self.symbolic as f64, (self.ranged + self.symbolic) as f64),
            "frac",
        );
        m.put(
            "core.plan_us_per_loop",
            probe.per_unit("core.plan", 1e3),
            "us",
        );
        m.put("core.mii_rounds", self.tally.mii_rounds as f64, "count");
        m.put(
            "core.decompose_retries",
            self.tally.decompose_retries as f64,
            "count",
        );
    }
}

/// The layer a span recorded by the program itself belongs to.
fn lib_span_layer(e: &TraceEvent) -> Option<&'static str> {
    Some(match (e.cat, e.name.as_str()) {
        ("bench", _) => return None,
        ("stage", "parse") => "ast",
        ("stage", "plan") | ("pass", _) => "core",
        ("slms", "slms.exact") => "exact",
        ("slms", _) => "core",
        ("stage", "lower") | ("stage", "compile") => "machine",
        ("stage", "simulate") | ("sim", _) => "sim",
        ("verify", _) => "verify",
        ("serve", _) => "serve",
        ("batch", _) | ("cell", _) => "pipeline",
        _ => return None,
    })
}

/// Count the program's own spans per layer.
pub fn lib_spans(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for e in events {
        if let Some(l) = lib_span_layer(e) {
            *out.entry(l).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "bench",
            pid: 1,
            tid: 0,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let evs = vec![
            ev("pipeline.run", 0, 100),
            ev("core.plan", 10, 30),
            ev("analysis.ddg", 15, 10),
            ev("sim.simulate", 50, 20),
        ];
        let t = self_times(&evs);
        assert_eq!(t["pipeline"].self_ns, 50);
        assert_eq!(t["core"].self_ns, 20);
        assert_eq!(t["analysis"].self_ns, 10);
        assert_eq!(t["sim"].calls, 1);
    }
}
