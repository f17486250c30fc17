//! slcbench — the end-to-end and per-layer benchmark of the slc workspace.
//!
//! ```text
//! slcbench --workload batch_matrix|serve_mixed|oneshot_exact
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload with tracing off and
//! reports the end-to-end metrics; with `--trace 1` it measures half the
//! time untraced and half traced (the difference is `trace.overhead_frac`),
//! then replays the run's inputs through each layer's public functions
//! under `bench` spans and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! See README.md in this directory for what each metric means.

mod batch;
mod common;
mod gen;
mod layers;
mod measure;
mod oneshot;
mod serve;

#[cfg(test)]
mod selftest;

use common::Outcome;
use std::process::exit;

const WORKLOADS: [&str; 3] = ["batch_matrix", "serve_mixed", "oneshot_exact"];

fn usage(msg: &str) -> ! {
    eprintln!(
        "slcbench: {msg}\nusage: slcbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = args
            .next()
            .unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" if WORKLOADS.contains(&v.as_str()) => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("bad --trace"),
                })
            }
            _ => usage(&format!("unknown argument {a} {v}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };
    let outcome = match workload.as_str() {
        "batch_matrix" => batch::run(seed, seconds, trace),
        "serve_mixed" => serve::run(seed, seconds, trace),
        _ => oneshot::run(seed, seconds, trace),
    };
    println!("{}", result_line(&outcome));
}
