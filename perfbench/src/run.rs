//! The closed-loop measured window.
//!
//! Each client thread replays its own pre-generated trace against the
//! endpoint and sends its next request only after the previous reply, as
//! the paper's YCSB clients do. Latencies are kept as raw per-op samples.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pesos_core::RequestEndpoint;

use crate::check::Violations;
use crate::trace::{key_name, read_stamp, Stamp, Stamper, TraceOp};

/// An acknowledged put.
#[derive(Debug, Clone, Copy)]
pub struct PutAck {
    pub key: u32,
    pub version: u64,
    pub seq: u64,
}

/// A successful get: the version returned and the stamp its value carried.
#[derive(Debug, Clone, Copy)]
pub struct GetSeen {
    pub key: u32,
    pub version: u64,
    pub stamp: Stamp,
}

/// One op's latency and when, since the window opened, it completed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ms: u32,
    pub ns: u64,
}

/// What one client did in the window.
#[derive(Default)]
pub struct ClientLog {
    pub writer: u64,
    pub puts: Vec<PutAck>,
    pub gets: Vec<GetSeen>,
    pub put_lat: Vec<Sample>,
    pub get_lat: Vec<Sample>,
    pub attempted: u64,
    /// Failed checks, and requests that returned an error (including
    /// policy denials).
    pub violations: Violations,
}

/// The outcome of a window.
pub struct Window {
    pub clients: Vec<ClientLog>,
    pub elapsed: Duration,
}

impl Window {
    pub fn completed(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| (c.puts.len() + c.gets.len()) as u64)
            .sum()
    }
}

/// Runs one closed-loop client per trace for `length` (the op in flight
/// when it ends completes).
pub fn run_window(
    endpoint: &Arc<dyn RequestEndpoint>,
    client_ids: &[String],
    traces: &[Vec<TraceOp>],
    stampers: &[Stamper],
    records: usize,
    length: Duration,
) -> Window {
    let barrier = Barrier::new(traces.len() + 1);
    let (clients, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..traces.len())
            .map(|c| {
                let (barrier, client) = (&barrier, client_ids[c].as_str());
                let (trace, stamper) = (&traces[c], &stampers[c]);
                s.spawn(move || {
                    let mut log = ClientLog {
                        writer: c as u64,
                        ..ClientLog::default()
                    };
                    // Highest version this client has written or read per
                    // key: a later read below it is stale.
                    let mut seen = vec![None::<u64>; records];
                    barrier.wait();
                    let start = Instant::now();
                    for &op in trace.iter().cycle() {
                        if start.elapsed() >= length {
                            break;
                        }
                        client_op(endpoint, client, op, stamper, start, &mut seen, &mut log);
                    }
                    (log, start.elapsed())
                })
            })
            .collect();
        barrier.wait();
        let mut elapsed = Duration::ZERO;
        let logs = handles
            .into_iter()
            .map(|h| {
                let (log, took) = h.join().expect("client thread panicked");
                elapsed = elapsed.max(took);
                log
            })
            .collect();
        (logs, elapsed)
    });
    Window { clients, elapsed }
}

fn client_op(
    endpoint: &Arc<dyn RequestEndpoint>,
    client: &str,
    op: TraceOp,
    stamper: &Stamper,
    window_start: Instant,
    seen: &mut [Option<u64>],
    log: &mut ClientLog,
) {
    let key = key_name(op.key);
    log.attempted += 1;
    if op.put {
        // The attempt counter is unique per client, so it names the put.
        let seq = log.attempted;
        let value = stamper.value(Stamp {
            key: op.key,
            writer: log.writer,
            seq,
        });
        let t = Instant::now();
        let result = endpoint.put(client, &key, value, None, None, &[]);
        let sample = sample_since(t, window_start);
        match result {
            Ok(version) => {
                log.put_lat.push(sample);
                log.puts.push(PutAck {
                    key: op.key,
                    version,
                    seq,
                });
                let last = &mut seen[op.key as usize];
                if last.is_some_and(|v| version <= v) {
                    log.violations.push(format!(
                        "{client}: put {key} acknowledged v{version}, not above v{}",
                        last.unwrap_or(0)
                    ));
                }
                *last = Some(version);
            }
            Err(e) => {
                log.violations.push(format!("{client}: put {key}: {e}"));
            }
        }
    } else {
        let t = Instant::now();
        let result = endpoint.get(client, &key, &[]);
        let sample = sample_since(t, window_start);
        match result {
            Ok((value, version)) => {
                log.get_lat.push(sample);
                let last = &mut seen[op.key as usize];
                match read_stamp(&value) {
                    Some(stamp) if stamp.key == op.key => {
                        log.gets.push(GetSeen {
                            key: op.key,
                            version,
                            stamp,
                        });
                    }
                    Some(stamp) => log.violations.push(format!(
                        "{client}: get {key} returned the value of {}",
                        key_name(stamp.key)
                    )),
                    None => log
                        .violations
                        .push(format!("{client}: get {key} v{version}: bad checksum")),
                }
                if last.is_some_and(|v| version < v) {
                    log.violations.push(format!(
                        "{client}: get {key} returned stale v{version} after v{}",
                        last.unwrap_or(0)
                    ));
                }
                *last = Some(last.map_or(version, |v| v.max(version)));
            }
            Err(e) => {
                log.violations.push(format!("{client}: get {key}: {e}"));
            }
        }
    }
}

fn sample_since(sent: Instant, window_start: Instant) -> Sample {
    let done = Instant::now();
    Sample {
        done_ms: (done - window_start).as_millis() as u32,
        ns: (done - sent).as_nanos() as u64,
    }
}
