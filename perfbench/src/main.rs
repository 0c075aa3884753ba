//! Closed-loop benchmark of the Pesos object store.
//!
//! ```text
//! perfbench --workload <hot-mixed|cold-read|disk-replicated> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's deployment (three times, timing each, to
//! report a median set-up time), drives it for `--seconds` with two
//! closed-loop clients through the public `RequestEndpoint`, checks every
//! reply and the final state, and prints one JSON object as the last line
//! of standard output. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` the per-layer metrics, from the window's counters and
//! from a separate traced replay (see `traced.rs`). `README.md` explains
//! the workloads and what each metric is meant to move.

mod check;
mod counters;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use counters::Counters;
use report::{Outcome, END_TO_END, PER_LAYER};
use run::run_window;
use trace::{client_trace, Stamper, TraceOp, LOADER};
use workload::{Fixture, Spec, CLIENTS};

/// Operations generated per client; a client that gets through them all
/// within the window starts over (its stamps stay unique).
const TRACE_LEN: usize = 1 << 18;

/// How many times a run builds its deployment to time set-up.
const SETUPS: usize = 3;

const CHECKER: &str = "checker";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(outcome) => {
            let line = outcome.json();
            record(&args, &line);
            println!("{line}");
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Where runs leave their records: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Appends the result line, with its workload and seed, to `out/runs.jsonl`.
fn record(args: &Args, line: &str) {
    let entry = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}\n",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );
    let path = out_dir().join("runs.jsonl");
    let written = std::fs::create_dir_all(out_dir()).and_then(|_| {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(entry.as_bytes())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot record the run in {}: {e}",
            path.display()
        );
    }
}

fn bench(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {} (known: {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        )
    })?;
    let seed = args.seed;
    println!(
        "# perfbench workload={} seed={seed} seconds={} trace={} clients={CLIENTS} available_parallelism={}",
        spec.name,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Inputs first, outside every timed section.
    let traces: Vec<Vec<TraceOp>> = (0..CLIENTS as u64)
        .map(|c| client_trace(seed, c, &spec.mix, TRACE_LEN))
        .collect();
    let stampers: Vec<Stamper> = (0..CLIENTS as u64)
        .map(|c| Stamper::new(seed, c, spec.value_size))
        .collect();
    let loader = Stamper::new(seed, LOADER, spec.value_size);
    let client_ids: Vec<String> = (0..CLIENTS).map(|c| format!("c{c}")).collect();
    let mut registered: Vec<&str> = client_ids.iter().map(String::as_str).collect();
    registered.push(CHECKER);

    // Set-up: bootstrap plus load, timed several times; the last one
    // serves. Peak memory is read after the first: later set-ups reuse the
    // heap the dropped ones left, in an order that varies from run to run.
    let mut setup_s = Vec::new();
    let mut setup_peak_rss_kib = 0;
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(Fixture::build(&spec, seed, &registered, spec.loaders)?);
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_peak_rss_kib == 0 {
            setup_peak_rss_kib = stats::peak_rss_kib().ok_or("cannot read VmHWM")?;
        }
    }
    let fixture = fixture.expect("at least one set-up");

    // The measured window.
    let before = Counters::read(&fixture);
    let cpu_before = stats::process_cpu_us().ok_or("cannot read /proc/self/stat")?;
    let max_lag = AtomicU64::new(0);
    let stop_sampler = AtomicBool::new(false);
    let mut window = std::thread::scope(|s| {
        if spec.replicated() {
            s.spawn(|| {
                while !stop_sampler.load(Ordering::Relaxed) {
                    max_lag.fetch_max(fixture.replication_lag(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        let w = run_window(
            &fixture.endpoint,
            &client_ids,
            &traces,
            &stampers,
            spec.mix.records,
            Duration::from_secs(args.seconds),
        );
        stop_sampler.store(true, Ordering::Relaxed);
        w
    });
    let cpu_us = stats::process_cpu_us().ok_or("cannot read /proc/self/stat")? - cpu_before;
    let after = Counters::read(&fixture);

    // Correctness: replication drains, the history holds, every key reads
    // back as last acknowledged.
    let mut violations = check::Violations::default();
    if let Err(e) = fixture.drain_replication(Duration::from_secs(60)) {
        violations.push(e);
    }
    for log in &mut window.clients {
        violations.absorb(std::mem::take(&mut log.violations));
    }
    violations.absorb(check::check_history(
        &fixture.endpoint,
        CHECKER,
        &window.clients,
        &stampers,
        &loader,
        spec.mix.records,
        2,
    ));
    let attempted: u64 = window.clients.iter().map(|c| c.attempted).sum();
    for v in &violations.examples {
        println!("# violation: {v}");
    }
    if violations.count > 0 {
        return Ok(Outcome::failed(attempted, violations.count));
    }

    let stored_growth = stored_growth(&spec, &fixture, &before, &after)?;
    let e2e = report::end_to_end(
        &window,
        &spec,
        cpu_us,
        &setup_s,
        setup_peak_rss_kib as f64 / 1024.0,
        stored_growth,
    );
    for line in &e2e.notes {
        println!("# {line}");
    }
    let mut outcome = Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics: Vec::new(),
    };
    if !args.trace {
        outcome.metrics = e2e.metrics;
        outcome.check_names(END_TO_END)?;
        return Ok(outcome);
    }

    let mut layer_metrics = e2e.tails;
    layer_metrics.extend(report::window_layers(
        &window,
        &spec,
        &before,
        &after,
        max_lag.load(Ordering::Relaxed),
    ));
    drop(fixture);
    let mut tracer = traced::Tracer::new();
    let sample = &traces[0][..spec.trace_sample];
    let traced = traced::traced_run(&spec, seed, sample, &mut tracer)?;
    for b in &traced.breakdown {
        let parts: Vec<String> = b
            .layers
            .iter()
            .map(|(l, v)| format!("{l}={v:.2}"))
            .collect();
        println!(
            "# traced {}: endpoint median {:.2} us = {} + unattributed={:.2}",
            b.kind,
            b.endpoint,
            parts.join(" + "),
            b.unattributed
        );
    }
    let spans = out_dir().join(format!("spans-{}-seed{seed}.tsv", spec.name));
    std::fs::create_dir_all(out_dir())
        .and_then(|_| tracer.write_tsv(&spans, sample))
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("# spans: {}", spans.display());
    layer_metrics.extend(traced.metrics);
    outcome.metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = layer_metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            Ok((name.to_string(), *unit, value))
        })
        .collect::<Result<_, String>>()?;
    outcome.check_names(PER_LAYER)?;
    Ok(outcome)
}

/// Drive bytes the window added, over every drive including backups.
///
/// Backups are reachable only by promoting them, so after the checks each
/// partition fails over onto its backup and the promoted backup's drives
/// are read. A backup starts the window in the state of its primary (the
/// load drained before the window began), so its growth is measured from
/// the primary's starting bytes.
fn stored_growth(
    spec: &Spec,
    fixture: &Fixture,
    before: &Counters,
    after: &Counters,
) -> Result<u64, String> {
    let total = |c: &Counters| c.primary_bytes.iter().sum::<u64>();
    let mut growth = total(after).saturating_sub(total(before));
    let (true, Some(cluster)) = (spec.replicated(), &fixture.cluster) else {
        return Ok(growth);
    };
    for (i, start) in before.primary_bytes.iter().enumerate() {
        let promotion = cluster
            .fail_controller(i)
            .map_err(|e| format!("promoting partition {i}'s backup: {e}"))?;
        let end: u64 = promotion
            .promoted
            .store()
            .drives()
            .iter()
            .map(|d| d.info().used_bytes)
            .sum();
        println!(
            "# partition {i}: backup ends at {end} B, primary at {} B",
            after.primary_bytes[i]
        );
        growth += end.saturating_sub(*start);
    }
    Ok(growth)
}
