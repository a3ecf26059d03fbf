//! The repository benchmark: five fixed-op workloads driven through the
//! store's public API, eleven end-to-end metrics, and a per-layer ledger
//! measured from outside the program. See `README.md`.

mod alloc;
mod catalog;
mod closed_loop;
mod drills;
#[cfg(test)]
mod json;
mod micro;
mod outcome;
mod report;
mod spans;
mod stats;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use outcome::Pass;
use report::{Measured, Metrics};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed of a run that names none. Claims are checked on [`HELD_OUT_SEED`],
/// which no sizing or tuning run of this benchmark used.
const DEFAULT_SEED: u64 = 2011;
const HELD_OUT_SEED: u64 = 79_192_011;

/// A smoke run divides every op count by this much.
const SMOKE_DIVISOR: u32 = 20;

const USAGE: &str = "usage: dd-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>]
                        [--trace <0|1>] [--traced] [--repeats <n>] [--smoke]
       dd-benchmark manifest      (prints BENCHMARK.json)
       dd-benchmark layers        (prints the layer ledger as a Markdown table)";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Passes per workload; `None` fills `seconds` (at least three).
    repeats: Option<usize>,
    smoke: bool,
}

impl Args {
    /// What every count is divided by.
    fn divisor(&self) -> u32 {
        if self.smoke {
            SMOKE_DIVISOR
        } else {
            1
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        repeats: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => out.traced = true,
            "--repeats" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if n == 0 {
                    return Err("--repeats must be at least 1".to_owned());
                }
                out.repeats = Some(n);
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Ticks between harvests: no latency of the workload resolves finer.
fn latency_resolution_ticks(workload: &str) -> u64 {
    closed_loop::spec(workload).map_or(25, |s| s.harvest_every)
}

/// One pass over `workload`; `inspect` also looks at what it left behind.
fn one_pass(workload: &str, args: &Args, traced: bool, inspect: bool) -> Pass {
    let divisor = u64::from(args.divisor());
    match closed_loop::spec(workload) {
        Some(spec) => closed_loop::run(&spec.scaled_down(divisor), args.seed, traced, inspect),
        None => drills::run(args.seed, drills::SEEDS.div_ceil(divisor), traced),
    }
}

/// What one workload measured, ready to print.
struct Outcome {
    metrics: Metrics,
    listed: Vec<(&'static str, &'static str)>,
    /// Printed beside the metrics, not part of the result object.
    info: Vec<(&'static str, String, &'static str, u64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Runs the passes of one workload and derives its metrics. `Err` is a
/// broken guarantee of the benchmark itself: sim results that differ
/// between passes of one seed, or a harness that costs too much.
fn measure(workload: &str, args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    // A smoke run is three passes unless told otherwise; a full run fills
    // the seconds it was given.
    let fixed = args.repeats.or(args.smoke.then_some(3));
    let more = |done: usize, least: usize| match fixed {
        Some(n) => done < n,
        None => done < least || started.elapsed().as_secs_f64() < args.seconds,
    };
    let resolution = latency_resolution_ticks(workload);
    let mut untraced = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let metrics;
    let listed: Vec<(&str, &str)>;
    if args.traced {
        let micro = micro::run(args.divisor());
        let idle_empty = closed_loop::spec(workload).map_or(0.0, |spec| {
            let mut cluster = closed_loop::fresh_cluster(&spec, args.seed, &mut None);
            closed_loop::idle_us_per_tick(&mut cluster)
        });
        // One pair already shows every layer; more only steady the medians.
        while more(traced.len(), 1) {
            untraced.push(one_pass(workload, args, false, false));
            // Only the last traced pass's spans are written out; the
            // totals of the earlier ones are all the report reads.
            if let Some(earlier) = traced.last_mut() {
                earlier.host.spans = Vec::new();
            }
            traced.push(one_pass(workload, args, true, traced.is_empty()));
        }
        metrics = report::per_layer(&untraced, &traced, &micro, idle_empty, resolution);
        listed = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let harness = metrics["bench.harness_share"].value;
        if harness > 0.10 {
            return Err(format!(
                "harness and generator took {:.1}% of the timed section (limit 10%)",
                harness * 100.0
            ));
        }
        let last = traced.last().expect("a traced pass ran");
        write_trace(workload, last).map_err(|e| format!("writing the trace: {e}"))?;
    } else {
        while more(untraced.len(), 3) {
            untraced.push(one_pass(workload, args, false, untraced.is_empty()));
        }
        metrics = report::end_to_end(&untraced, resolution);
        listed = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    }

    let sim = &untraced[0].sim;
    for pass in untraced.iter().chain(&traced) {
        if pass.sim != *sim {
            return Err(format!(
                "sim results differ between passes of seed {}: fingerprints {:016x} and {:016x}",
                args.seed,
                sim.fingerprint(),
                pass.sim.fingerprint()
            ));
        }
    }
    for (name, _) in &listed {
        let m = metrics.get(*name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
    }

    let passes = (untraced.len() + traced.len()) as u64;
    let mut info = vec![
        ("latency_resolution_ticks", resolution.to_string(), "ticks", 1),
        ("sim_fingerprint", format!("{:016x}", sim.fingerprint()), "hex", passes),
    ];
    let samples = sim.latency_all().count();
    if let Some(p) = stats::highest_resolved_percentile(samples) {
        info.push(("latency_highest_resolved_percentile", (p * 100.0).to_string(), "%", samples));
    }
    for (name, count) in report::counts(if args.traced { &traced } else { &untraced }) {
        info.push((name, count.to_string(), "count", sim.attempted));
    }
    Ok(Outcome {
        metrics,
        listed,
        info,
        attempted: sim.attempted,
        failed: sim.failed() + sim.safety_violations,
        correct: sim.safety_violations == 0,
    })
}

fn write_trace(workload: &str, pass: &Pass) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(path, spans::chrome_trace(workload, &pass.host.spans))
}

/// One line per metric, `workload metric value unit n=<samples>`, then
/// the result object the driver reads as the last line.
fn print(workload: &str, outcome: &Outcome, smoke: bool) {
    let tail = if smoke { " smoke" } else { "" };
    for (name, value, unit, n) in &outcome.info {
        println!("{workload} {name} {value} {unit} n={n}{tail}");
    }
    for (name, unit) in &outcome.listed {
        let Measured { value, n, quartiles } = outcome.metrics[*name];
        let spread = quartiles.map_or(String::new(), |(q1, q3)| format!(" q1={q1} q3={q3}"));
        println!("{workload} {name} {value} {unit} n={n}{spread}{tail}");
    }
    println!("{}", result_json(outcome));
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                outcome.metrics[*name].value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_args(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", catalog::manifest());
            return ExitCode::SUCCESS;
        }
        Some((cmd, [])) if cmd == "layers" => {
            print!("{}", catalog::layer_table());
            return ExitCode::SUCCESS;
        }
        _ => Err("expected `run`, `manifest` or `layers`".to_owned()),
    };
    let args = match args {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        println!(
            "# smoke run: every count divided by {SMOKE_DIVISOR}; not comparable, never a baseline"
        );
    }
    println!(
        "# seed {} (default {DEFAULT_SEED}, held out for claims {HELD_OUT_SEED}), {} passes",
        args.seed,
        if args.traced { "untraced+traced" } else { "untraced" }
    );
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    for workload in names {
        match measure(workload, &args) {
            Ok(outcome) => print(workload, &outcome, args.smoke),
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| (*w).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse_and_bad_ones_are_refused() {
        let a = args(&["--workload", "drills", "--seed", "7", "--seconds", "3", "--trace", "1"]);
        let a = a.expect("the driver's command line");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("drills"), 7, 3.0, true)
        );
        let defaults = args(&[]).expect("no arguments");
        assert_eq!((defaults.seed, defaults.traced, defaults.repeats), (DEFAULT_SEED, false, None));
        assert!(args(&["--smoke", "--traced", "--repeats", "2"]).is_ok_and(|a| a.smoke && a.traced));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--repeats", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }

    /// A smoke pass over every workload: every listed metric is there, and
    /// the result object is what the driver reads.
    fn smoke_run_reports(traced: bool) {
        let mut run = args(&["--smoke", "--repeats", "1"]).expect("smoke arguments");
        run.traced = traced;
        let expected: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for w in WORKLOADS {
            let outcome = measure(w.name, &run).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(outcome.correct && outcome.attempted > 0, "{}", w.name);
            let doc = parse(&result_json(&outcome)).expect("the result object is JSON");
            let Json::Object(top) = &doc else { panic!("the result is an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Object(metrics)) = doc.get("metrics") else { panic!("metrics") };
            assert_eq!(metrics.len(), expected.len(), "{}: no metric beyond the listed", w.name);
            for (name, unit) in &expected {
                let m = metrics.get(*name).unwrap_or_else(|| panic!("{}: no {name}", w.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                let value = m.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{} {name} = {value}", w.name);
                assert!(traced || value > 0.0, "{} {name} must never read 0", w.name);
            }
        }
    }

    #[test]
    fn a_smoke_run_reports_all_eleven_end_to_end_metrics_of_all_five_workloads() {
        smoke_run_reports(false);
    }

    #[test]
    fn a_traced_smoke_run_reports_every_per_layer_metric_of_all_five_workloads() {
        smoke_run_reports(true);
    }
}
