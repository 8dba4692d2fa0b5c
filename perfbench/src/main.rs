//! Benchmark driver.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_pcaps --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One run repeats trials of the workload's input set, built from the seed,
//! until `--seconds` have passed; before each trial the input set is built
//! several times to time the set-up.  Every trial is checked and must
//! reproduce the first trial's simulated outputs bit for bit; a trial that
//! fails either way counts as failed and is not timed.
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1`, untraced and traced trials alternate and it reports
//! the per-layer metrics, with the per-layer split printed above it and
//! the spans of the last traced trial's first instance written to
//! `perfbench/out/<workload>.spans.tsv`.

use perfbench::report::{first_instance, layer_metrics, median_metrics, split_table, write_spans};
use perfbench::workloads::{
    cross_check, median, ratio, InputSet, Simulated, Size, Trial, Workload,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions before each trial.
const SETUP_REPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|e| format!("--seed {value:?}: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|e| format!("--seconds {value:?}: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The process's resident-set high-water mark in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let size = Size::BENCH;
    let mut setup_s = Vec::new();
    // Set-up is repeated before every trial, so its samples spread over the
    // whole run like the trials' and the last build is the one that runs.
    let mut build = || {
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            drop(inputs.take());
            let started = Instant::now();
            inputs = Some(InputSet::build(args.workload, args.seed, size));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        inputs.expect("at least one set-up repetition")
    };

    let budget = Duration::from_secs(args.seconds);
    let min_trials = if args.trace { 3 } else { 2 };
    let started = Instant::now();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut reference: Option<Vec<Simulated>> = None;
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut traced_metrics = Vec::new();
    // Only the last traced trial's spans are kept: a traced `fed_serve`
    // trial records millions.
    let mut last_traced: Option<Trial> = None;
    let mut peak_rss = None;
    // A trial starts only if one as long as the last still ends in budget.
    let mut iteration_started = started;
    loop {
        let now = Instant::now();
        let last_iteration = now - iteration_started;
        iteration_started = now;
        if attempted >= min_trials && now + last_iteration > started + budget {
            break;
        }
        let is_traced = args.trace && attempted % 2 == 1;
        if is_traced {
            last_traced = None;
        }
        let inputs = build();
        attempted += 1;
        let trial = match inputs.run(is_traced) {
            Ok(trial) => trial,
            Err(e) => {
                eprintln!("perfbench: trial {attempted} failed: {e}");
                failed += 1;
                continue;
            }
        };
        match &reference {
            None => reference = Some(trial.sims.clone()),
            Some(r) if *r != trial.sims => {
                eprintln!(
                    "perfbench: trial {attempted} is not deterministic:\n  first {r:?}\n  now   {:?}",
                    trial.sims
                );
                failed += 1;
                continue;
            }
            Some(_) => {}
        }
        // Before the first cross-check, whose undrained run holds more.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        if let Err(e) = cross_check(args.workload, args.seed, size, attempted - 1, &trial.sims) {
            eprintln!("perfbench: trial {attempted} failed its cross-check: {e}");
            failed += 1;
            continue;
        }
        let kind = if is_traced { "traced" } else { "untraced" };
        eprintln!(
            "perfbench: trial {attempted} ({kind}): {:.4} s",
            trial.wall_s
        );
        if is_traced {
            traced_wall.push(trial.wall_s);
            traced_metrics.push(layer_metrics(&trial.spans, &Simulated::total(&trial.sims)));
            last_traced = Some(trial);
        } else {
            untraced_wall.push(trial.wall_s);
        }
    }

    let correct = failed == 0 && reference.is_some();
    let Some(sims) = reference else {
        println!("{}", json_line(false, attempted, failed, &[]));
        return Ok(());
    };
    let sim = Simulated::total(&sims);
    let wall_s = median(&untraced_wall);
    let metrics = if args.trace {
        let traced_wall_s = median(&traced_wall);
        if let Some(last) = &last_traced {
            println!(
                "{} seed {}: untraced wall {wall_s:.4} s, traced wall {traced_wall_s:.4} s, {} tasks",
                args.workload.name(),
                args.seed,
                sim.tasks
            );
            print!("{}", split_table(&last.spans, last.wall_s));
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{}.spans.tsv", args.workload.name()));
            write_spans(&path, first_instance(&last.spans))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let mut metrics = median_metrics(&traced_metrics);
        metrics.push(("trace.wall_s", traced_wall_s, "s"));
        metrics.push((
            "trace.overhead_frac",
            ratio(traced_wall_s, wall_s) - 1.0,
            "frac",
        ));
        metrics
    } else {
        vec![
            ("wall_s", wall_s, "s"),
            ("tasks_per_s", ratio(sim.tasks as f64, wall_s), "1/s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
            ("carbon_kg", sim.carbon_kg, "kg"),
            ("avg_jct_s", sim.avg_jct_s(), "s"),
            (
                "accept_frac",
                ratio(sim.accepted as f64, sim.arrivals as f64),
                "frac",
            ),
        ]
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
