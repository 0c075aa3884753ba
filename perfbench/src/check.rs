//! Correctness checks on what a window's clients saw.
//!
//! During the window each client checks every get itself (the stamp names
//! the requested key, the checksum holds, and versions never go backwards
//! for that client). After the window, [`check_history`] merges every
//! client's log with the load phase and checks that
//!
//! * no two acknowledged puts share a key and version,
//! * every get returned exactly the value the put of its version wrote,
//! * reading each key back now returns its last acknowledged version,
//!   byte for byte.

use std::collections::HashMap;
use std::sync::Arc;

use pesos_core::RequestEndpoint;

use crate::run::ClientLog;
use crate::trace::{key_name, Stamp, Stamper};
use crate::workload::load_stamp;

/// A count of failed checks plus the first few descriptions.
#[derive(Debug, Default)]
pub struct Violations {
    pub count: u64,
    pub examples: Vec<String>,
}

impl Violations {
    const KEEP: usize = 8;

    pub fn push(&mut self, what: String) {
        self.count += 1;
        if self.examples.len() < Self::KEEP {
            self.examples.push(what);
        }
    }

    pub fn absorb(&mut self, other: Violations) {
        self.count += other.count;
        for e in other.examples {
            if self.examples.len() < Self::KEEP {
                self.examples.push(e);
            }
        }
    }
}

/// Checks the merged history of a window and reads every key back through
/// `endpoint` as `checker` (a registered client) with `threads` readers.
/// `stampers[w]` rebuilds the values of writer `w`; `loader` those of the
/// load phase.
pub fn check_history(
    endpoint: &Arc<dyn RequestEndpoint>,
    checker: &str,
    logs: &[ClientLog],
    stampers: &[Stamper],
    loader: &Stamper,
    records: usize,
    threads: usize,
) -> Violations {
    let mut v = Violations::default();
    // (key, version) -> the stamp of the put acknowledged at it.
    let mut acks: HashMap<(u32, u64), Stamp> = HashMap::new();
    let mut latest: Vec<(u64, Stamp)> = (0..records as u32).map(|k| (0, load_stamp(k))).collect();
    for key in 0..records as u32 {
        acks.insert((key, 0), load_stamp(key));
    }
    for log in logs {
        for put in &log.puts {
            let stamp = Stamp {
                key: put.key,
                writer: log.writer,
                seq: put.seq,
            };
            if let Some(other) = acks.insert((put.key, put.version), stamp) {
                v.push(format!(
                    "{} v{} acknowledged to both {other:?} and {stamp:?}",
                    key_name(put.key),
                    put.version
                ));
            }
            let slot = &mut latest[put.key as usize];
            if put.version > slot.0 {
                *slot = (put.version, stamp);
            }
        }
    }
    for log in logs {
        for get in &log.gets {
            if acks.get(&(get.key, get.version)) != Some(&get.stamp) {
                v.push(format!(
                    "get {} v{} returned {:?}, but that version was acknowledged to {:?}",
                    key_name(get.key),
                    get.version,
                    get.stamp,
                    acks.get(&(get.key, get.version))
                ));
            }
        }
    }

    let value_of = |stamp: Stamp| match stampers.get(stamp.writer as usize) {
        Some(s) => s.value(stamp),
        None => loader.value(stamp),
    };
    let threads = threads.max(1);
    let read_back: Vec<Violations> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (latest, value_of) = (&latest, &value_of);
                s.spawn(move || {
                    let mut v = Violations::default();
                    for key in (t..records).step_by(threads) {
                        let (version, stamp) = latest[key];
                        let name = key_name(key as u32);
                        match endpoint.get(checker, &name, &[]) {
                            Ok((_, got)) if got != version => v.push(format!(
                                "read-back {name}: v{got}, last acknowledged v{version}"
                            )),
                            Ok((value, _)) if *value != value_of(stamp) => v.push(format!(
                                "read-back {name} v{version}: bytes differ from the acknowledged put"
                            )),
                            Ok(_) => {}
                            Err(e) => v.push(format!("read-back {name}: {e}")),
                        }
                    }
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read-back thread panicked"))
            .collect()
    });
    for r in read_back {
        v.absorb(r);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_window;
    use crate::trace::{client_trace, KeyChoice, Mix, LOADER};
    use pesos_core::{ControllerConfig, PesosController, PesosError};
    use pesos_crypto::Certificate;
    use pesos_policy::PolicyId;

    /// Serves every get one version behind the latest.
    struct StaleReads(Arc<PesosController>);

    impl RequestEndpoint for StaleReads {
        fn register_client(&self, client_id: &str) -> String {
            self.0.register_client(client_id)
        }
        fn put_policy(&self, client_id: &str, source: &str) -> Result<PolicyId, PesosError> {
            self.0.put_policy(client_id, source)
        }
        fn put(
            &self,
            client_id: &str,
            key: &str,
            value: Vec<u8>,
            policy_id: Option<PolicyId>,
            expected_version: Option<u64>,
            certificates: &[Certificate],
        ) -> Result<u64, PesosError> {
            self.0.put(
                client_id,
                key,
                value,
                policy_id,
                expected_version,
                certificates,
            )
        }
        fn put_async(
            &self,
            client_id: &str,
            key: &str,
            value: Vec<u8>,
            policy_id: Option<PolicyId>,
            expected_version: Option<u64>,
            certificates: &[Certificate],
        ) -> Result<u64, PesosError> {
            self.0.put_async(
                client_id,
                key,
                value,
                policy_id,
                expected_version,
                certificates,
            )
        }
        fn get(
            &self,
            client_id: &str,
            key: &str,
            certificates: &[Certificate],
        ) -> Result<(Arc<Vec<u8>>, u64), PesosError> {
            let (value, version) = self.0.get(client_id, key, certificates)?;
            if version == 0 {
                return Ok((value, version));
            }
            let old = self
                .0
                .get_version(client_id, key, version - 1, certificates)?;
            Ok((Arc::new(old), version - 1))
        }
        fn delete(
            &self,
            client_id: &str,
            key: &str,
            certificates: &[Certificate],
        ) -> Result<(), PesosError> {
            self.0.delete(client_id, key, certificates)
        }
        fn latest_version(&self, key: &str) -> Option<u64> {
            RequestEndpoint::latest_version(self.0.as_ref(), key)
        }
        fn drain_async(&self) {
            self.0.drain_async()
        }
    }

    /// Loads 64 keys, runs mixed ops from one client for 0.3 s and checks
    /// them.
    fn checked_run(stale: bool) -> Violations {
        const RECORDS: usize = 64;
        let controller =
            Arc::new(PesosController::new(ControllerConfig::native_simulator(1)).unwrap());
        let endpoint: Arc<dyn RequestEndpoint> = if stale {
            Arc::new(StaleReads(Arc::clone(&controller)))
        } else {
            controller
        };
        for client in ["loader", "c0", "checker"] {
            endpoint.register_client(client);
        }
        let loader = Stamper::new(5, LOADER, 256);
        for key in 0..RECORDS as u32 {
            let value = loader.value(load_stamp(key));
            endpoint
                .put("loader", &key_name(key), value, None, None, &[])
                .unwrap();
        }
        let mix = Mix {
            records: RECORDS,
            put_fraction: 0.5,
            keys: KeyChoice::Uniform,
        };
        let stampers = vec![Stamper::new(5, 0, 256)];
        let mut window = run_window(
            &endpoint,
            &["c0".to_string()],
            &[client_trace(5, 0, &mix, 1000)],
            &stampers,
            RECORDS,
            std::time::Duration::from_millis(300),
        );
        let mut v = std::mem::take(&mut window.clients[0].violations);
        v.absorb(check_history(
            &endpoint,
            "checker",
            &window.clients,
            &stampers,
            &loader,
            RECORDS,
            2,
        ));
        v
    }

    #[test]
    fn an_honest_endpoint_passes() {
        let v = checked_run(false);
        assert_eq!(v.count, 0, "{:?}", v.examples);
    }

    #[test]
    fn an_endpoint_serving_stale_versions_is_flagged() {
        let v = checked_run(true);
        assert!(v.count > 0);
        assert!(
            v.examples
                .iter()
                .any(|e| e.contains("stale") || e.contains("read-back")),
            "{:?}",
            v.examples
        );
    }
}
