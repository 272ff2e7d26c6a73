//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <render-bigsplat|render-finesplat|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, renders the reference
//! frames, sets the system up, measures for `--seconds` seconds, checks
//! every output, and prints a table plus one JSON result line (the last
//! line of standard output). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` makes the traced run and reports the per-layer metrics,
//! writing its spans to `perfbench-traces/<workload>-<seed>.jsonl`.
//! Exits 1 when any output, losslessness or reconciliation check fails,
//! 2 on a usage error.

mod inputs;
mod layers;
mod render;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use inputs::{Inputs, Workload};
use report::{json_string, schema, RunMetadata};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <render-bigsplat|render-finesplat|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let began = Instant::now();
    let meta = RunMetadata::collect();
    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "# perfbench {} seed {} trace {} — scene digest {:016x}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        inputs.digest
    );
    let mut outcome = workload::run(&inputs, args.seconds, args.trace);
    if !args.trace {
        match report::peak_rss_mb() {
            Some(mb) => outcome.metrics.single("peak_rss_mb", mb, 1),
            None => outcome
                .tally
                .fail("peak RSS unavailable (no /proc/self/status)".to_string()),
        }
    }
    let schema = schema(args.trace);
    for name in outcome.metrics.missing(schema) {
        outcome
            .tally
            .fail(format!("metric `{name}` was not measured"));
    }

    if let Some(tracer) = &outcome.tracer {
        let path = format!(
            "perfbench-traces/{}-{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench-traces")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| tracer.write_jsonl(&mut std::io::BufWriter::new(file)));
        match written {
            Ok(()) => println!("# {} spans written to {path}", tracer.spans().len()),
            Err(error) => eprintln!("perfbench: could not write {path}: {error}"),
        }
    }

    print!("{}", outcome.metrics.table(schema));
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.tally.failures {
        println!("# FAILED: {failure}");
    }
    let correct = outcome.tally.failures.is_empty() && outcome.tally.failed == 0;
    println!(
        "{{\"run_metadata\":{{\"workload\":\"{}\",\"seed\":{},\"scene_digest\":\"{:016x}\",\
         \"trace\":{},\"seconds\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\
         \"git_commit\":{},\"attempted\":{},\"failed\":{},\"wall_s\":{:.3},\"samples\":{}}}}}",
        args.workload.name(),
        args.seed,
        inputs.digest,
        args.trace,
        args.seconds,
        meta.nproc,
        json_string(&meta.cpu_model),
        json_string(meta.rustc),
        json_string(&meta.git_commit),
        outcome.tally.attempted,
        outcome.tally.failed,
        began.elapsed().as_secs_f64(),
        outcome.metrics.sample_counts(schema),
    );
    println!(
        "{}",
        outcome.metrics.result_line(schema, &outcome.tally, correct)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
