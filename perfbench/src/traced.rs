//! The traced run: per-layer spans and self times.
//!
//! A fixed sample of the workload's seeded trace (the head of client 0's
//! trace) is replayed once per layer entry point, single-threaded, each
//! replay on its own fresh fixture built the same way (loaded by one
//! thread when the data exceeds the object cache, so cache contents — and
//! with them every op's hit or miss — repeat from replay to replay). The
//! replays advance together, op by op.
//! Going down the layers the entry points are:
//!
//! | layer        | entry point                                        |
//! |--------------|----------------------------------------------------|
//! | `cluster`    | the `RequestEndpoint` (cluster, or bare controller)|
//! | `controller` | `PesosController::put` / `get` of the owning primary |
//! | `store`      | `PesosStore::put_object` / `get_object`            |
//! | `policy`     | `CompiledPolicy::evaluate` on the workload policy  |
//! | `crypto`     | `ObjectCrypter::seal` / `unseal` at the value size  |
//! | `kinetic`    | `KineticClient::put` / `get` at the sealed size    |
//!
//! Every call is a [`Span`] carrying its layer, start, end and the op id
//! of the trace op it replays, so the spans of one op share an id across
//! replays. An op's self time in a layer is its span minus the spans of
//! the layers that layer calls for the same op id: the controller calls
//! the policy and the store; the store calls the crypter (a put seals; a
//! get unseals only when it misses the object cache) and the drive once
//! per drive operation the store replay observed for that op. Each
//! layer's self time is the median of those per-op self times, and the
//! part of the endpoint median they leave over is reported as
//! `unattributed`, so the layers plus `unattributed` sum to the traced
//! endpoint median by construction.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pesos_core::ObjectCrypter;
use pesos_kinetic::{ClientConfig, DriveConfig, KineticClient, KineticDrive, Payload};
use pesos_policy::{Operation, RequestContext, StaticObjectView, Value};

use crate::stats::median;
use crate::trace::{key_name, Stamp, Stamper, TraceOp};
use crate::workload::{load_stamp, Fixture, Spec, OPEN_POLICY};

const CLIENT: &str = "c0";

/// The layers, top down.
pub const LAYERS: [&str; 6] = [
    "cluster",
    "controller",
    "policy",
    "store",
    "crypto",
    "kinetic",
];
const CLUSTER: u8 = 0;
const CONTROLLER: u8 = 1;
const POLICY: u8 = 2;
const STORE: u8 = 3;
const CRYPTO: u8 = 4;
const KINETIC: u8 = 5;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: u8,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> i64 {
        (self.end_ns - self.start_ns) as i64
    }
}

/// Span recorder; spans stay in memory until the run writes them out.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn span<R>(&mut self, layer: u8, op: u32, call: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            op,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Writes every span as tab-separated `layer op kind start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path, sample: &[TraceOp]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\top\tkind\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let layer = LAYERS[s.layer as usize];
            let kind = if sample[s.op as usize].put {
                "put"
            } else {
                "get"
            };
            writeln!(
                out,
                "{layer}\t{}\t{kind}\t{}\t{}",
                s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the replays observed about each op besides its spans.
#[derive(Debug, Clone, Copy, Default)]
struct OpFacts {
    /// The store served the get from its object cache.
    cache_hit: bool,
    /// Drive operations the store issued for the op.
    drive_ops: u64,
    /// SHA-256 compressions the endpoint op cost, replication included.
    sha256: u64,
}

/// Per-layer results of the traced run, in µs unless noted.
pub struct TraceReport {
    /// `(name, value)` pairs in report order.
    pub metrics: Vec<(String, f64)>,
    /// Per op kind, how the endpoint median splits over the layers.
    pub breakdown: Vec<Breakdown>,
}

/// The traced endpoint median of one op kind and its split, in µs.
pub struct Breakdown {
    pub kind: &'static str,
    pub endpoint: f64,
    /// Self time per layer, top down.
    pub layers: Vec<(&'static str, f64)>,
    pub unattributed: f64,
}

/// Runs every replay and derives the per-layer metrics.
///
/// The replays advance together, op by op: op `i` goes to every layer's
/// fixture before op `i + 1` goes to any, so a shift in host speed lands
/// on all the spans an op's self times are taken from.
pub fn traced_run(
    spec: &Spec,
    seed: u64,
    sample: &[TraceOp],
    tracer: &mut Tracer,
) -> Result<TraceReport, String> {
    let stamper = Stamper::new(seed, 0, spec.value_size);
    let loader = Stamper::new(seed, crate::trace::LOADER, spec.value_size);
    // Which objects the cache holds after the load depends on the load's
    // order only when they do not all fit; then one loader keeps it fixed.
    let loaders = if spec.data_exceeds_cache() {
        1
    } else {
        spec.loaders
    };
    let build = || Fixture::build(spec, seed, &[CLIENT], loaders);
    let (untraced, traced, controller, store) = (build()?, build()?, build()?, build()?);
    let policy = pesos_policy::compile(OPEN_POLICY).map_err(|e| format!("policy: {e}"))?;
    let view = StaticObjectView::new();
    let crypter = ObjectCrypter::new(&[0x5e; 32], true);
    let drive = Arc::new(KineticDrive::new(match spec.backend() {
        pesos_kinetic::BackendKind::Memory => DriveConfig::simulator("trace-drive"),
        pesos_kinetic::BackendKind::Hdd => DriveConfig::hdd("trace-drive"),
    }));
    let client = KineticClient::connect(drive, ClientConfig::factory_default())
        .map_err(|e| format!("kinetic connect: {e}"))?;
    // Each key of the sample starts on the drive as its loaded value,
    // sealed as the store seals it: (version, sealed bytes).
    let mut latest: HashMap<u32, (u64, Vec<u8>)> = HashMap::new();
    for op in sample {
        if let std::collections::hash_map::Entry::Vacant(e) = latest.entry(op.key) {
            let key = key_name(op.key);
            let sealed = crypter.seal(&key, 0, &loader.value(load_stamp(op.key)));
            client
                .put(key.as_bytes(), sealed.clone(), &[], &[], true)
                .map_err(|e| format!("kinetic preload {key}: {e}"))?;
            e.insert((0, sealed));
        }
    }

    let mut facts = vec![OpFacts::default(); sample.len()];
    let mut untraced_ns = vec![0i64; sample.len()];
    for (i, op) in sample.iter().enumerate() {
        let id = i as u32;
        let key = key_name(op.key);
        let value = op.put.then(|| {
            stamper.value(Stamp {
                key: op.key,
                writer: 0,
                seq: i as u64 + 1,
            })
        });
        let fail = |layer: &str| format!("traced {layer} op {i} on {key} failed");
        // The value is copied before the clock starts.
        let endpoint_call = |f: &Fixture, v: Option<Vec<u8>>| match v {
            Some(v) => f.endpoint.put(CLIENT, &key, v, None, None, &[]).is_ok(),
            None => f.endpoint.get(CLIENT, &key, &[]).is_ok(),
        };
        // Each endpoint op waits for the backups to apply it, so its
        // replication work is counted against it.
        let settle = |f: &Fixture| -> Result<(), String> {
            if spec.replicated() {
                f.drain_replication(std::time::Duration::from_secs(30))?;
            }
            Ok(())
        };

        // The endpoint untraced, timed the way the measured window times.
        let v = value.clone();
        let t = Instant::now();
        let ok = endpoint_call(&untraced, v);
        untraced_ns[i] = t.elapsed().as_nanos() as i64;
        if !ok {
            return Err(fail("untraced endpoint"));
        }
        settle(&untraced)?;

        let sha = pesos_crypto::sha256::ops::compressions();
        let v = value.clone();
        if !tracer.span(CLUSTER, id, || endpoint_call(&traced, v)) {
            return Err(fail("endpoint"));
        }
        settle(&traced)?;
        facts[i].sha256 = pesos_crypto::sha256::ops::compressions() - sha;

        let c = controller.controller_for(&key);
        let ok = match value.clone() {
            Some(v) => tracer.span(CONTROLLER, id, || {
                c.put(CLIENT, key.as_str(), v, None, None, &[]).is_ok()
            }),
            None => tracer.span(CONTROLLER, id, || c.get(CLIENT, key.as_str(), &[]).is_ok()),
        };
        if !ok {
            return Err(fail("controller"));
        }

        let st = store.controller_for(&key).store();
        let hits = st.object_cache_stats().hits;
        let drive_ops = || -> u64 {
            st.drives()
                .iter()
                .map(|d| {
                    let s = d.info().stats;
                    s.puts + s.gets + s.deletes
                })
                .sum()
        };
        let ops_before = drive_ops();
        let ok = match &value {
            Some(v) => tracer.span(STORE, id, || st.put_object(key.as_str(), v, None).is_ok()),
            None => tracer.span(STORE, id, || st.get_object(key.as_str()).is_ok()),
        };
        if !ok {
            return Err(fail("store"));
        }
        facts[i].cache_hit = st.object_cache_stats().hits > hits;
        facts[i].drive_ops = drive_ops() - ops_before;

        // The policy against the request context the controller builds.
        // Without a policy the controller makes no call; the span then
        // times that empty call.
        let (version, sealed) = latest.get_mut(&op.key).expect("preloaded key");
        let operation = if op.put {
            Operation::Update
        } else {
            Operation::Read
        };
        let mut ctx = RequestContext::new(operation)
            .with_session_key(CLIENT)
            .with_now(1)
            .bind(pesos_policy::parser::THIS_VAR, Value::Str(key.clone()))
            .bind(
                pesos_policy::parser::LOG_VAR,
                Value::Str(format!("{key}.log")),
            );
        if let Some(v) = &value {
            ctx = ctx
                .with_next_version(*version + 1)
                .with_new_object_hash(pesos_crypto::sha256(v).to_vec());
        }
        let allowed = if spec.policy {
            tracer.span(POLICY, id, || {
                policy.evaluate(operation, &ctx, &view).allowed
            })
        } else {
            tracer.span(POLICY, id, || std::hint::black_box(true))
        };
        if !allowed {
            return Err(fail("policy"));
        }

        match &value {
            Some(v) => {
                *version += 1;
                *sealed = tracer.span(CRYPTO, id, || crypter.seal(&key, *version, v));
                let payload = Payload::from(sealed.clone());
                tracer
                    .span(KINETIC, id, || {
                        client.put(key.as_bytes(), payload, &[], &[], true)
                    })
                    .map_err(|e| format!("traced kinetic put {key}: {e}"))?;
            }
            None => {
                tracer
                    .span(CRYPTO, id, || crypter.unseal(&key, *version, sealed))
                    .map_err(|e| format!("traced unseal {key}: {e}"))?;
                tracer
                    .span(KINETIC, id, || client.get(key.as_bytes()))
                    .map_err(|e| format!("traced kinetic get {key}: {e}"))?;
            }
        }
    }

    Ok(attribute(sample, &facts, &untraced_ns, &tracer.spans))
}

/// Derives self times and per-call costs from the spans.
fn attribute(
    sample: &[TraceOp],
    facts: &[OpFacts],
    untraced_ns: &[i64],
    spans: &[Span],
) -> TraceReport {
    let n = sample.len();
    let mut span_ns = vec![[0i64; LAYERS.len()]; n];
    for s in spans {
        span_ns[s.op as usize][s.layer as usize] = s.ns();
    }
    let us = |ns: f64| ns / 1000.0;
    let mut metrics = Vec::new();
    let mut breakdown = Vec::new();
    for (kind, put) in [("put", true), ("get", false)] {
        let ops: Vec<usize> = (0..n).filter(|&i| sample[i].put == put).collect();
        // Per op: what the store charged to the crypter and the drive.
        let crypto = |i: usize| {
            if put || !facts[i].cache_hit {
                span_ns[i][CRYPTO as usize]
            } else {
                0
            }
        };
        let kinetic = |i: usize| span_ns[i][KINETIC as usize] * facts[i].drive_ops as i64;
        let s = |i: usize, l: u8| span_ns[i][l as usize];
        // An op's self time in each layer: its span less its callees'.
        let self_ns = |layer: u8, i: usize| match layer {
            CLUSTER => s(i, CLUSTER) - s(i, CONTROLLER),
            CONTROLLER => s(i, CONTROLLER) - s(i, STORE) - s(i, POLICY),
            POLICY => s(i, POLICY),
            STORE => s(i, STORE) - crypto(i) - kinetic(i),
            CRYPTO => crypto(i),
            _ => kinetic(i),
        };
        let med = |f: &dyn Fn(usize) -> i64| {
            median(&ops.iter().map(|&i| f(i) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let endpoint = med(&|i| s(i, CLUSTER));
        let mut layers = Vec::new();
        for (layer, name) in (0u8..).zip(LAYERS) {
            let v = us(med(&|i| self_ns(layer, i)));
            metrics.push((format!("{name}.self_us.{kind}"), v));
            layers.push((name, v));
        }
        let unattributed = us(endpoint) - layers.iter().map(|(_, v)| v).sum::<f64>();
        metrics.push((format!("trace.endpoint_us.{kind}"), us(endpoint)));
        metrics.push((format!("trace.unattributed_us.{kind}"), unattributed));
        metrics.push((
            format!("kinetic.exchange_us.{kind}"),
            us(med(&|i| s(i, KINETIC))),
        ));
        metrics.push((
            format!("crypto.{}_us", if put { "seal" } else { "unseal" }),
            us(med(&|i| s(i, CRYPTO))),
        ));
        let sha: u64 = ops.iter().map(|&i| facts[i].sha256).sum();
        metrics.push((
            format!("crypto.sha256_compressions_per_{kind}"),
            sha as f64 / ops.len().max(1) as f64,
        ));
        breakdown.push(Breakdown {
            kind,
            endpoint: us(endpoint),
            layers,
            unattributed,
        });
    }
    let all = |l: u8| {
        median(
            &(0..n)
                .map(|i| span_ns[i][l as usize] as f64)
                .collect::<Vec<_>>(),
        )
    };
    let untraced = median(&untraced_ns.iter().map(|&v| v as f64).collect::<Vec<_>>());
    metrics.push(("policy.eval_us".into(), us(all(POLICY).unwrap_or(0.0))));
    metrics.push((
        "trace.overhead_us".into(),
        us(all(CLUSTER).unwrap_or(0.0) - untraced.unwrap_or(0.0)),
    ));
    TraceReport { metrics, breakdown }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_for(op: u32, ns: [u64; 6]) -> Vec<Span> {
        (0..6u8)
            .map(|layer| Span {
                layer,
                op,
                start_ns: 1_000,
                end_ns: 1_000 + ns[layer as usize],
            })
            .collect()
    }

    #[test]
    fn self_times_follow_the_call_tree_and_sum_to_the_endpoint_median() {
        let sample = [
            TraceOp { put: true, key: 1 },
            TraceOp { put: false, key: 1 },
            TraceOp { put: false, key: 2 },
        ];
        let facts = [
            OpFacts {
                drive_ops: 2,
                ..OpFacts::default()
            },
            OpFacts {
                cache_hit: true,
                ..OpFacts::default()
            },
            OpFacts {
                drive_ops: 1,
                ..OpFacts::default()
            },
        ];
        // cluster, controller, policy, store, crypto, kinetic (ns)
        let mut spans = spans_for(0, [10_000, 9_000, 500, 8_000, 2_000, 1_500]);
        spans.extend(spans_for(1, [3_000, 2_500, 400, 1_000, 2_000, 1_500]));
        spans.extend(spans_for(2, [7_000, 6_000, 400, 5_000, 2_000, 1_500]));
        let report = attribute(&sample, &facts, &[9_000, 2_000, 6_000], &spans);
        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // The put seals once and makes two drive exchanges.
        assert_eq!(metric("store.self_us.put"), 8.0 - 2.0 - 2.0 * 1.5);
        assert_eq!(metric("controller.self_us.put"), 9.0 - 8.0 - 0.5);
        assert_eq!(metric("cluster.self_us.put"), 1.0);
        // Of the gets, the hit charges nothing below the store.
        assert_eq!(metric("kinetic.self_us.get"), (0.0 + 1.5) / 2.0);
        assert_eq!(metric("kinetic.exchange_us.get"), 1.5);
        assert_eq!(metric("trace.overhead_us"), 7.0 - 6.0);
        for b in &report.breakdown {
            let sum: f64 = b.layers.iter().map(|(_, v)| v).sum();
            assert!(
                (sum + b.unattributed - b.endpoint).abs() < 1e-9,
                "{}",
                b.kind
            );
        }
    }
}
