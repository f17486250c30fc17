//! What every workload shares: the result record, the end-to-end metric
//! set, plan-quality tallies and the traced-run bookkeeping.

use crate::gen::GenLoop;
use crate::layers::{lib_spans, self_times, Probe, LAYERS};
use crate::measure::{geomean, peak_rss_mb, percentile, Stopwatch};
use slc::ast::{ForLoop, Stmt};
use slc::slms::LoopOutcome;
use slc::trace::{validate_chrome_trace, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One run's result line.
pub struct Outcome {
    /// every output the benchmark checked against its reference was right
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

#[derive(Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Length of the windows whose median throughput and CPU cost a run
/// reports: short stalls from other tenants of the machine then move one
/// window, not the result.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Work measured in one window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// The measured part of a run.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// operations completed inside the measured sections
    pub ops: u64,
    /// wall time of the measured sections
    pub wall_ns: u64,
    /// process CPU time of the measured sections
    pub cpu_ns: u64,
    /// one latency sample per request, program or pass, in ms
    pub lat_ms: Vec<f64>,
    /// operations attempted (completed or not)
    pub attempted: u64,
    /// operations that failed, were refused, timed out or gave wrong output
    pub failed: u64,
    /// operations whose output differed from the reference
    pub wrong: u64,
    /// the measured sections cut into windows of about [`WINDOW_NS`]
    pub windows: Vec<Window>,
}

impl Timed {
    /// Count completed operations in the current window.
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
        if let Some(w) = self.windows.last_mut() {
            w.ops += n;
        }
    }

    /// Full windows, with a short last window folded into the one before.
    fn full_windows(&self) -> Vec<Window> {
        let mut ws = self.windows.clone();
        if ws.len() > 1 && ws.last().is_some_and(|w| w.wall_ns < WINDOW_NS / 2) {
            let last = ws.pop().expect("checked non-empty");
            let prev = ws.last_mut().expect("checked two windows");
            prev.ops += last.ops;
            prev.wall_ns += last.wall_ns;
            prev.cpu_ns += last.cpu_ns;
        }
        ws.retain(|w| w.ops > 0);
        ws
    }

    /// Median over windows of operations per second.
    pub fn median_ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .full_windows()
            .iter()
            .map(|w| w.ops as f64 / (w.wall_ns.max(1) as f64 / 1e9))
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            crate::measure::median(&rates)
        }
    }

    /// Median over windows of process CPU ms per operation.
    pub fn median_cpu_ms_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .full_windows()
            .iter()
            .map(|w| w.cpu_ns as f64 / 1e6 / w.ops as f64)
            .collect();
        if costs.is_empty() {
            0.0
        } else {
            crate::measure::median(&costs)
        }
    }

    pub fn absorb(&mut self, o: &Timed) {
        self.ops += o.ops;
        self.wall_ns += o.wall_ns;
        self.cpu_ns += o.cpu_ns;
        self.lat_ms.extend_from_slice(&o.lat_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.windows.extend_from_slice(&o.windows);
    }
}

/// Schedule quality of a workload's fixed input set (deterministic for a
/// seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub speedup_geomean: f64,
    pub transformed_frac: f64,
    pub ii_mean: f64,
}

/// Per-loop plan outcomes folded into [`Quality`] terms.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PlanTally {
    pub loops: u64,
    pub transformed: u64,
    pub ii_sum: i64,
    /// MI rows per iteration before over after SLMS (`n_mis / II`; 1 for a
    /// loop left unchanged)
    pub row_ratios: Vec<f64>,
    pub mii_rounds: u64,
    pub decompose_retries: u64,
}

impl PlanTally {
    pub fn add(&mut self, o: &LoopOutcome) {
        use slc::slms::DiagEvent;
        self.loops += 1;
        match &o.result {
            Ok(r) => {
                self.transformed += 1;
                self.ii_sum += r.ii;
                self.row_ratios.push(r.n_mis as f64 / r.ii.max(1) as f64);
            }
            Err(_) => self.row_ratios.push(1.0),
        }
        for ev in &o.trace {
            match ev {
                DiagEvent::MiiAttempt { .. } => self.mii_rounds += 1,
                DiagEvent::Decomposed { .. } => self.decompose_retries += 1,
                _ => {}
            }
        }
    }

    pub fn merge(&mut self, o: &PlanTally) {
        self.loops += o.loops;
        self.transformed += o.transformed;
        self.ii_sum += o.ii_sum;
        self.row_ratios.extend_from_slice(&o.row_ratios);
        self.mii_rounds += o.mii_rounds;
        self.decompose_retries += o.decompose_retries;
    }

    pub fn transformed_frac(&self) -> f64 {
        self.transformed as f64 / self.loops.max(1) as f64
    }

    pub fn ii_mean(&self) -> f64 {
        self.ii_sum as f64 / self.transformed.max(1) as f64
    }

    /// Quality with the static MI-row speedup, for the paths that do not
    /// simulate.
    pub fn quality(&self) -> Quality {
        Quality {
            speedup_geomean: geomean(&self.row_ratios),
            transformed_frac: self.transformed_frac(),
            ii_mean: self.ii_mean(),
        }
    }
}

/// Innermost `for` loops of a statement list, in pre-order.
pub fn innermost_loops(stmts: &[Stmt]) -> Vec<&ForLoop> {
    fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a ForLoop>) -> bool {
        let mut any = false;
        for s in stmts {
            match s {
                Stmt::For(f) => {
                    any = true;
                    let before = out.len();
                    if !walk(&f.body, out) {
                        out.insert(before, f);
                    }
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    any |= walk(then_branch, out);
                    any |= walk(else_branch, out);
                }
                Stmt::While { body, .. } | Stmt::Block(body) => any |= walk(body, out),
                _ => {}
            }
        }
        any
    }
    let mut out = Vec::new();
    walk(stmts, &mut out);
    out
}

/// Run `setup` [`SETUP_REPS`] times; keep the last state and report the
/// median wall time in seconds.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        if state.take().is_some() {
            release_freed_memory();
        }
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        state.expect("SETUP_REPS is at least 1"),
        crate::measure::median(&times),
    )
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand memory freed by an earlier set-up back to the system, so that
/// `peak_rss_mb` measures the run's own state rather than what the
/// allocator kept from set-ups that were thrown away.
fn release_freed_memory() {
    // SAFETY: malloc_trim only returns free pages of the process's own
    // heaps to the kernel; it takes no pointers and is safe to call at any
    // time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Call `step` until `seconds` of wall time have passed (at least once);
/// each call runs and records one or more measured sections.
pub fn run_for(seconds: f64, mut step: impl FnMut(&mut Timed)) -> Timed {
    let mut t = Timed::default();
    let start = Instant::now();
    loop {
        step(&mut t);
        if start.elapsed().as_secs_f64() >= seconds {
            return t;
        }
    }
}

/// Time one section: add its wall and CPU time to `t` and its current
/// window, and return its wall time in ms. Count the operations it
/// completed with [`Timed::add_ops`].
pub fn section<T>(t: &mut Timed, f: impl FnOnce() -> T) -> (T, f64) {
    if t.windows.last().is_none_or(|w| w.wall_ns >= WINDOW_NS) {
        t.windows.push(Window::default());
    }
    let sw = Stopwatch::start();
    let out = f();
    let (wall, cpu) = sw.stop();
    t.wall_ns += wall;
    t.cpu_ns += cpu;
    let w = t.windows.last_mut().expect("pushed above");
    w.wall_ns += wall;
    w.cpu_ns += cpu;
    (out, wall as f64 / 1e6)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: f64, t: &Timed, tail_pct: f64, q: &Quality) -> MetricSet {
    let mut m = MetricSet::default();
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", t.median_ops_per_s(), "1/s");
    m.put("cpu_ms_per_op", t.median_cpu_ms_per_op(), "ms");
    m.put("latency_p50_ms", percentile(&t.lat_ms, 50.0), "ms");
    m.put("latency_tail_ms", percentile(&t.lat_ms, tail_pct), "ms");
    m.put(
        "ok_frac",
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
        "frac",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("speedup_geomean", q.speedup_geomean, "x");
    m.put("transformed_frac", q.transformed_frac, "frac");
    m.put("ii_mean", q.ii_mean, "II");
    eprintln!(
        "slcbench: {} ops in {:.3} s measured ({} windows, {:.1} ops/s, {:.3} cpu ms/op overall), \
         {} latency samples (tail = p{tail_pct}), {} attempted, {} failed, {} wrong",
        t.ops,
        t.wall_ns as f64 / 1e9,
        t.full_windows().len(),
        t.ops as f64 / (t.wall_ns.max(1) as f64 / 1e9),
        t.cpu_ns as f64 / 1e6 / t.ops.max(1) as f64,
        t.lat_ms.len(),
        t.attempted,
        t.failed,
        t.wrong
    );
    m
}

/// Shared part of the per-layer output: self time and calls of every layer
/// from the probe's spans, the program's own span counts from the traced
/// half, the tracing overhead, and the probe trace written and validated
/// as a Chrome trace. Returns false when the trace does not validate.
pub fn layer_common(
    m: &mut MetricSet,
    probe: &Probe,
    lib_tracer: &Tracer,
    untraced: &Timed,
    traced: &Timed,
    workload: &str,
) -> bool {
    crate::layers::fill_bypassed(m);
    let probe_events = probe.tracer.events();
    let selfs = self_times(&probe_events);
    let lib = lib_spans(&lib_tracer.events());
    for layer in LAYERS {
        let lt = selfs.get(layer).copied().unwrap_or_default();
        m.put(&format!("{layer}.self_ms"), lt.self_ns as f64 / 1e6, "ms");
        m.put(&format!("{layer}.calls"), lt.calls as f64, "count");
        let n = lib.get(layer).copied().unwrap_or(0);
        m.put(&format!("{layer}.lib_spans"), n as f64, "count");
    }
    let overhead = 1.0 - traced.median_ops_per_s() / untraced.median_ops_per_s();
    m.put("trace.overhead_frac", overhead, "frac");
    let chrome = probe
        .tracer
        .to_chrome_json()
        .expect("the probe tracer is enabled");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &chrome)) {
        eprintln!("slcbench: cannot write {}: {e}", path.display());
    }
    match validate_chrome_trace(&chrome) {
        Ok(s) => {
            eprintln!(
                "slcbench: trace {} valid: {} spans on {} tracks",
                path.display(),
                s.spans,
                s.tracks.len()
            );
            true
        }
        Err(e) => {
            eprintln!("slcbench: trace {} INVALID: {e}", path.display());
            false
        }
    }
}

/// Check that the layers a workload is predicted to bypass recorded no
/// spans of their own in the traced half.
pub fn bypassed(lib_tracer: &Tracer, layers: &[&str]) -> bool {
    let lib: BTreeMap<&str, u64> = lib_spans(&lib_tracer.events());
    let mut ok = true;
    for l in layers {
        if let Some(n) = lib.get(l).filter(|&&n| n > 0) {
            eprintln!("slcbench: layer {l} predicted bypassed but recorded {n} spans");
            ok = false;
        }
    }
    ok
}

/// The measured share of each input property over the programs a run
/// sent, each counted as often as it was sent.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shares {
    sent: u64,
    mis: u64,
    symbolic: u64,
    guarded: u64,
}

impl Shares {
    pub fn add(&mut self, g: &GenLoop, count: u64) {
        let prog = slc::ast::parse_program(&g.source).expect("generated loops parse");
        for f in innermost_loops(&prog.stmts) {
            self.mis += count * slc::analysis::partition_mis(&f.body).map_or(0, |v| v.len() as u64);
        }
        self.sent += count;
        self.symbolic += count * u64::from(g.symbolic);
        self.guarded += count * u64::from(g.guarded);
    }

    pub fn merge(&mut self, o: &Shares) {
        self.sent += o.sent;
        self.mis += o.mis;
        self.symbolic += o.symbolic;
        self.guarded += o.guarded;
    }

    pub fn put(&self, m: &mut MetricSet, repeat_frac: f64) {
        let n = self.sent.max(1) as f64;
        m.put("gen.mis_mean", self.mis as f64 / n, "MIs");
        m.put("gen.symbolic_trip_frac", self.symbolic as f64 / n, "frac");
        m.put("gen.ifconv_frac", self.guarded as f64 / n, "frac");
        m.put("gen.repeat_frac", repeat_frac, "frac");
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
