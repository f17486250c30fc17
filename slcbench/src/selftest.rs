//! The benchmark's own self-test. Run with
//! `cargo test --release --manifest-path slcbench/Cargo.toml`.

use crate::common::Outcome;
use crate::gen::gen_loops;
use crate::{batch, oneshot, serve};

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// Metrics that depend only on the seed, never on timing.
const DETERMINISTIC_E2E: [&str; 3] = ["speedup_geomean", "transformed_frac", "ii_mean"];
const DETERMINISTIC_COUNTS: [&str; 11] = [
    "analysis.pairs_decided",
    "analysis.sat_decided_frac",
    "analysis.symbolic_fallback_frac",
    "core.mii_rounds",
    "core.decompose_retries",
    "verify.obligations",
    "exact.sat_conflicts_per_solve",
    "machine.ms_applied_frac",
    "sim.ff_hit_frac",
    "pipeline.hit_frac.plan",
    "pipeline.hit_frac.compile",
];

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for shape in [batch::SHAPE, serve::SHAPE, oneshot::SHAPE] {
        assert_eq!(gen_loops(7, 20, &shape), gen_loops(7, 20, &shape));
        assert_ne!(gen_loops(7, 20, &shape), gen_loops(8, 20, &shape));
    }
}

#[test]
fn generated_loops_parse_and_vary() {
    let loops = gen_loops(3, 200, &oneshot::SHAPE);
    for g in &loops {
        slc::ast::parse_program(&g.source).expect("generated loop parses");
    }
    assert!(loops.iter().any(|g| g.symbolic) && loops.iter().any(|g| !g.symbolic));
    assert!(loops.iter().any(|g| g.guarded) && loops.iter().any(|g| !g.guarded));
    assert!(loops.iter().any(|g| g.trips >= 200) && loops.iter().any(|g| g.trips < 40));
}

fn assert_repeats(a: &Outcome, b: &Outcome, names: &[&str]) {
    for n in names {
        assert_eq!(
            metric(a, n),
            metric(b, n),
            "{n} differs between identical seeds"
        );
    }
}

#[test]
fn deterministic_metrics_repeat_for_a_seed() {
    for run in [batch::run, serve::run, oneshot::run] {
        let (a, b) = (run(5, 0.2, false), run(5, 0.2, false));
        assert!(a.correct && b.correct);
        assert_repeats(&a, &b, &DETERMINISTIC_E2E);
        let (a, b) = (run(5, 0.2, true), run(5, 0.2, true));
        assert!(a.correct && b.correct);
        assert_repeats(&a, &b, &DETERMINISTIC_COUNTS);
    }
}

#[test]
fn corrupted_responses_count_as_failed() {
    let o = serve::run_with(9, 0.5, false, Some(5));
    assert!(!o.correct);
    assert!(
        o.failed * 6 >= o.attempted,
        "{} of {}",
        o.failed,
        o.attempted
    );
    assert!(metric(&o, "ok_frac") < 0.9);
}

#[test]
fn corrupted_one_shot_output_is_wrong() {
    let g = &gen_loops(11, 1, &oneshot::SHAPE)[0];
    let mut r = oneshot::one_shot(&g.source, &slc::trace::Tracer::disabled()).expect("compiles");
    assert_eq!(oneshot::check_first(g, &r), (!r.clean, false));
    // drop the loop: the output no longer computes what the source does
    r.output = r.output.split("for").next().unwrap_or_default().to_string();
    assert_eq!(oneshot::check_first(g, &r), (true, true));
}

#[test]
fn corrupted_batch_report_misses_the_digest() {
    let report = slc::pipeline::run_batch(&slc::pipeline::BatchConfig {
        threads: Some(batch::THREADS),
        ..slc::pipeline::BatchConfig::full_matrix()
    })
    .to_json();
    assert_eq!(
        crate::measure::sha256_hex(report.as_bytes()),
        batch::CANONICAL_DIGEST
    );
    let tampered = report.replacen("\"cycles\": ", "\"cycles\": 1", 1);
    assert_ne!(
        crate::measure::sha256_hex(tampered.as_bytes()),
        batch::CANONICAL_DIGEST
    );
}
