//! Metric definitions, their computation from a window, and the result
//! line.

use crate::counters::Counters;
use crate::run::{Sample, Window};
use crate::stats::{median, percentile};
use crate::workload::Spec;

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("get_p50_us", "us"),
    ("put_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("setup_peak_rss_mib", "MiB"),
    ("stored_bytes_per_written_byte", "B/B"),
];

/// Per-layer metrics, reported by every `--trace 1` run. The endpoint's
/// p99s lead: tails on this shared host swing too far between runs for a
/// bound (see README), so they are reported here, ungated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("endpoint.get_p99_us", "us"),
    ("endpoint.put_p99_us", "us"),
    ("cluster.self_us.put", "us"),
    ("cluster.self_us.get", "us"),
    ("cluster.request_retries_per_kop", "1/kop"),
    ("replication.records_per_write", "records/write"),
    ("replication.stalls_per_kwrite", "1/kwrite"),
    ("replication.max_lag_records", "records"),
    ("controller.self_us.put", "us"),
    ("controller.self_us.get", "us"),
    ("policy.eval_us", "us"),
    ("policy.self_us.put", "us"),
    ("policy.self_us.get", "us"),
    ("policy.cache_hit_rate", "fraction"),
    ("store.object_cache_hit_rate", "fraction"),
    ("store.object_cache_evictions_per_op", "1/op"),
    ("store.self_us.put", "us"),
    ("store.self_us.get", "us"),
    ("crypto.sha256_compressions_per_put", "1/op"),
    ("crypto.sha256_compressions_per_get", "1/op"),
    ("crypto.seal_us", "us"),
    ("crypto.unseal_us", "us"),
    ("crypto.self_us.put", "us"),
    ("crypto.self_us.get", "us"),
    ("asyscall.calls_per_op", "1/op"),
    ("asyscall.batches_per_op", "1/op"),
    ("asyscall.slot_waits_per_kop", "1/kop"),
    ("asyscall.max_concurrency", "count"),
    ("sgx.epc_page_faults_per_op", "1/op"),
    ("sgx.charged_us_per_op", "us"),
    ("kinetic.drive_writes_per_put", "1/op"),
    ("kinetic.drive_reads_per_get", "1/op"),
    ("kinetic.exchange_us.put", "us"),
    ("kinetic.exchange_us.get", "us"),
    ("kinetic.self_us.put", "us"),
    ("kinetic.self_us.get", "us"),
    ("kinetic.drive_busy_frac", "fraction"),
    ("trace.endpoint_us.put", "us"),
    ("trace.endpoint_us.get", "us"),
    ("trace.unattributed_us.put", "us"),
    ("trace.unattributed_us.get", "us"),
    ("trace.overhead_us", "us"),
];

/// A metric name the result line may carry: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result of a run, printed as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// A run whose checks failed: it reports no numbers.
    pub fn failed(attempted: u64, failed: u64) -> Self {
        Outcome {
            correct: false,
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
        }
    }

    /// Confirms the metrics are exactly `expected`, finite and well named.
    pub fn check_names(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        if names != want {
            return Err(format!("metrics {names:?}, expected {want:?}"));
        }
        match self
            .metrics
            .iter()
            .find(|(n, _, v)| !valid_name(n) || !v.is_finite())
        {
            Some((n, _, v)) => Err(format!("metric {n} = {v} cannot be reported")),
            None => Ok(()),
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics of a window, the endpoint's p99s, and
/// human-readable notes (sample counts and the set-up times behind the
/// median).
pub struct EndToEnd {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub tails: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

pub fn end_to_end(
    window: &Window,
    spec: &Spec,
    cpu_us: u64,
    setup_s: &[f64],
    peak_rss_mib: f64,
    stored_growth: u64,
) -> EndToEnd {
    let completed = window.completed() as f64;
    let full = (window.elapsed.as_millis() / u128::from(SLICE_MS)) as u32;
    let gets = slices(window.clients.iter().flat_map(|c| &c.get_lat), full);
    let puts = slices(window.clients.iter().flat_map(|c| &c.put_lat), full);
    let per_slice: Vec<f64> = gets
        .iter()
        .zip(&puts)
        .map(|(g, p)| (g.len() + p.len()) as f64 * 1000.0 / f64::from(SLICE_MS))
        .collect();
    let ops_per_s = median(&per_slice).unwrap_or(completed / window.elapsed.as_secs_f64());
    let (get_p50, n_get) = sliced_percentile(&gets, 50.0);
    let (get_p99, _) = sliced_percentile(&gets, 99.0);
    let (put_p50, n_put) = sliced_percentile(&puts, 50.0);
    let (put_p99, _) = sliced_percentile(&puts, 99.0);
    let acked_puts: usize = window.clients.iter().map(|c| c.puts.len()).sum();
    let tails = vec![
        ("endpoint.get_p99_us".to_string(), get_p99 / 1000.0),
        ("endpoint.put_p99_us".to_string(), put_p99 / 1000.0),
    ];
    let notes = vec![
        format!(
            "window {:.3} s, {completed} ops: {} gets, {} puts",
            window.elapsed.as_secs_f64(),
            gets.iter().map(Vec::len).sum::<usize>(),
            puts.iter().map(Vec::len).sum::<usize>(),
        ),
        format!(
            "ops_per_s over {full} slices of {SLICE_MS} ms; percentiles over {n_get} (get) and \
             {n_put} (put) slices with at least {MIN_SLICE_SAMPLES} samples"
        ),
        format!("setup_s samples {setup_s:?}"),
        format!(
            "p99 (ungated): get {:.3} us, put {:.3} us",
            get_p99 / 1000.0,
            put_p99 / 1000.0
        ),
    ];
    let values = [
        ops_per_s,
        get_p50 / 1000.0,
        put_p50 / 1000.0,
        cpu_us as f64 / completed,
        median(setup_s).unwrap_or(f64::NAN),
        peak_rss_mib,
        stored_growth as f64 / (acked_puts * spec.value_size) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), *unit, v))
        .collect();
    EndToEnd {
        metrics,
        tails,
        notes,
    }
}

/// Length of the slices a window's rate and percentiles are taken over.
const SLICE_MS: u32 = 2000;

/// Samples a slice needs for its percentiles to count (two beyond a p99).
const MIN_SLICE_SAMPLES: usize = 200;

/// Latencies (ns) grouped by the slice their op completed in, for the
/// window's `full` complete slices; ops finishing after the last complete
/// slice are left out.
fn slices<'a>(samples: impl Iterator<Item = &'a Sample>, full: u32) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); full as usize];
    for s in samples {
        if let Some(slice) = out.get_mut((s.done_ms / SLICE_MS) as usize) {
            slice.push(s.ns);
        }
    }
    out
}

/// A latency percentile robust to a host stall: each slice with at least
/// [`MIN_SLICE_SAMPLES`] samples gets its exact percentile, and the median
/// of those is returned with the number of slices it covers. A stall
/// confined to a minority of the slices does not move it; a latency
/// that is longer throughout does. NaN if no slice qualifies.
fn sliced_percentile(slices: &[Vec<u64>], p: f64) -> (f64, usize) {
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|v| v.len() >= MIN_SLICE_SAMPLES)
        .filter_map(|v| percentile(&mut v.clone(), p))
        .map(|ns| ns as f64)
        .collect();
    (median(&per_slice).unwrap_or(f64::NAN), per_slice.len())
}

/// Per-layer metrics read from the window's counter deltas.
pub fn window_layers(
    window: &Window,
    spec: &Spec,
    before: &Counters,
    after: &Counters,
    max_lag: u64,
) -> Vec<(String, f64)> {
    let ops = window.completed().max(1) as f64;
    let puts = window
        .clients
        .iter()
        .map(|c| c.puts.len())
        .sum::<usize>()
        .max(1) as f64;
    let gets = window
        .clients
        .iter()
        .map(|c| c.gets.len())
        .sum::<usize>()
        .max(1) as f64;
    let d = |f: fn(&Counters) -> u64| f(after).saturating_sub(f(before)) as f64;
    let rate = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let busiest = after
        .drive_ops
        .iter()
        .zip(&before.drive_ops)
        .map(|(a, b)| a - b)
        .max()
        .unwrap_or(0);
    let busy_frac = match spec.backend() {
        pesos_kinetic::BackendKind::Memory => 0.0,
        pesos_kinetic::BackendKind::Hdd => {
            let service = pesos_kinetic::HddModel::default().service_time(spec.value_size);
            busiest as f64 * service.as_secs_f64() / window.elapsed.as_secs_f64()
        }
    };
    vec![
        (
            "cluster.request_retries_per_kop".into(),
            1000.0 * d(|c| c.request_retries) / ops,
        ),
        (
            "replication.records_per_write".into(),
            d(|c| c.replication_appended) / puts,
        ),
        (
            "replication.stalls_per_kwrite".into(),
            1000.0 * d(|c| c.replication_stalls) / puts,
        ),
        ("replication.max_lag_records".into(), max_lag as f64),
        (
            "policy.cache_hit_rate".into(),
            rate(d(|c| c.policy_cache_hits), d(|c| c.policy_cache_misses)),
        ),
        (
            "store.object_cache_hit_rate".into(),
            rate(d(|c| c.object_cache_hits), d(|c| c.object_cache_misses)),
        ),
        (
            "store.object_cache_evictions_per_op".into(),
            d(|c| c.object_cache_evictions) / ops,
        ),
        (
            "asyscall.calls_per_op".into(),
            d(|c| c.asyscall_calls) / ops,
        ),
        (
            "asyscall.batches_per_op".into(),
            d(|c| c.asyscall_batches) / ops,
        ),
        (
            "asyscall.slot_waits_per_kop".into(),
            1000.0 * d(|c| c.asyscall_slot_waits) / ops,
        ),
        (
            "asyscall.max_concurrency".into(),
            after.asyscall_max_concurrency as f64,
        ),
        (
            "sgx.epc_page_faults_per_op".into(),
            d(|c| c.epc_page_faults) / ops,
        ),
        (
            "sgx.charged_us_per_op".into(),
            d(|c| c.sgx_charged_ns) / 1000.0 / ops,
        ),
        (
            "kinetic.drive_writes_per_put".into(),
            d(|c| c.drive_writes) / puts,
        ),
        (
            "kinetic.drive_reads_per_get".into(),
            d(|c| c.drive_reads) / gets,
        ),
        ("kinetic.drive_busy_frac".into(), busy_frac),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for bad in ["", "a b", "p99%", ".x", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names_in = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_string())
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_in("end_to_end"), want(END_TO_END));
        assert_eq!(names_in("per_layer"), want(PER_LAYER));
    }

    #[test]
    fn sliced_percentiles_ignore_a_stalled_minority_of_slices() {
        let mut samples = Vec::new();
        for slice in 0..5u32 {
            let stall = if slice == 2 { 10 } else { 1 };
            for i in 1..=300u64 {
                samples.push(Sample {
                    done_ms: slice * SLICE_MS + i as u32,
                    ns: i * 1000 * stall,
                });
            }
        }
        let five = slices(samples.iter(), 5);
        assert_eq!(sliced_percentile(&five, 50.0), (150_000.0, 5));
        assert_eq!(sliced_percentile(&five, 99.0), (297_000.0, 5));
        // Ops completing after the last full slice are left out.
        let four = slices(samples.iter(), 4);
        assert_eq!(four.iter().map(Vec::len).sum::<usize>(), 1200);
        // Slices too small for a p99 do not count.
        let thin = slices(samples.iter().step_by(2), 5);
        assert_eq!(sliced_percentile(&thin, 99.0).1, 0);
        assert!(sliced_percentile(&thin, 99.0).0.is_nan());
    }

    #[test]
    fn the_result_line_has_the_contract_shape() {
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s".into(), "s", 0.8127)],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(o.check_names(&[("setup_s", "s")]).is_ok());
        assert!(o.check_names(&[("ops_per_s", "1/s")]).is_err());
        let nan = Outcome {
            metrics: vec![("setup_s".into(), "s", f64::NAN)],
            ..o
        };
        assert!(nan.check_names(&[("setup_s", "s")]).is_err());
    }
}
