//! The three workloads and the deployments they run on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::{ControllerConfig, PesosController, RequestEndpoint};
use pesos_kinetic::backend::BackendKind;
use pesos_policy::PolicyId;

use crate::trace::{key_name, KeyChoice, Mix, Stamp, Stamper, LOADER};

/// The policy attached to every object where a workload uses policies: it
/// admits any client with a session, so every check runs and none denies.
pub const OPEN_POLICY: &str =
    "read :- sessionKeyIs(U)\nupdate :- sessionKeyIs(U)\ndelete :- sessionKeyIs(U)";

/// Client id the load phase writes with.
pub const LOADER_CLIENT: &str = "loader";

/// Where a workload's requests are served.
#[derive(Debug, Clone, Copy)]
pub enum Deployment {
    /// A bare `PesosController`.
    Controller { backend: BackendKind },
    /// A `ControllerCluster` of one-drive controllers.
    Cluster {
        partitions: usize,
        backups: usize,
        backend: BackendKind,
    },
}

/// Everything that defines one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub mix: Mix,
    pub value_size: usize,
    pub policy: bool,
    pub deployment: Deployment,
    /// Whether controllers keep the default 16 MiB object cache; without
    /// it every get reads the drive.
    pub object_cache: bool,
    /// Threads the load phase uses (the drive model sleeps, so the disk
    /// workload loads with more threads than there are CPUs).
    pub loaders: usize,
    /// Operations of client 0's trace the traced run replays per layer.
    pub trace_sample: usize,
}

/// Closed-loop client threads in every workload.
pub const CLIENTS: usize = 2;

pub const WORKLOADS: [&str; 3] = ["hot-mixed", "cold-read", "disk-replicated"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot-mixed" => Spec {
                name: "hot-mixed",
                mix: Mix {
                    records: 8192,
                    put_fraction: 0.5,
                    keys: KeyChoice::Zipf(0.99),
                },
                value_size: 1024,
                policy: true,
                deployment: Deployment::Cluster {
                    partitions: 1,
                    backups: 0,
                    backend: BackendKind::Memory,
                },
                object_cache: true,
                loaders: 2,
                trace_sample: 3000,
            },
            "cold-read" => Spec {
                name: "cold-read",
                mix: Mix {
                    records: 16_384,
                    put_fraction: 0.05,
                    keys: KeyChoice::Uniform,
                },
                value_size: 8192,
                policy: false,
                deployment: Deployment::Controller {
                    backend: BackendKind::Memory,
                },
                object_cache: true,
                loaders: 2,
                trace_sample: 1500,
            },
            "disk-replicated" => Spec {
                name: "disk-replicated",
                mix: Mix {
                    records: 2048,
                    put_fraction: 0.5,
                    keys: KeyChoice::Zipf(0.99),
                },
                value_size: 1024,
                policy: true,
                deployment: Deployment::Cluster {
                    partitions: 2,
                    backups: 1,
                    backend: BackendKind::Hdd,
                },
                // Gets served from the cache would time CPU wake-ups on a
                // mostly idle host rather than the drives this workload
                // is about.
                object_cache: false,
                loaders: 16,
                trace_sample: 200,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn backend(&self) -> BackendKind {
        match self.deployment {
            Deployment::Controller { backend } | Deployment::Cluster { backend, .. } => backend,
        }
    }

    /// Whether the object cache is on but cannot hold every record.
    pub fn data_exceeds_cache(&self) -> bool {
        self.object_cache
            && self.mix.records * self.value_size > self.controller_config().object_cache_bytes
    }

    /// Whether partitions stream their op logs to backups.
    pub fn replicated(&self) -> bool {
        matches!(self.deployment, Deployment::Cluster { backups, .. } if backups > 0)
    }

    fn controller_config(&self) -> ControllerConfig {
        let mut config = match self.backend() {
            BackendKind::Memory => ControllerConfig::sgx_simulator(1),
            BackendKind::Hdd => ControllerConfig::sgx_disk(1),
        };
        if !self.object_cache {
            config.object_cache_bytes = 0;
        }
        config
    }
}

/// A deployment built and loaded for one workload.
pub struct Fixture {
    pub endpoint: Arc<dyn RequestEndpoint>,
    pub cluster: Option<Arc<ControllerCluster>>,
    /// Partition primaries in partition order (the bare controller alone
    /// for the controller deployment).
    pub controllers: Vec<Arc<PesosController>>,
    pub policy: Option<PolicyId>,
}

impl Fixture {
    /// Bootstraps the deployment, registers `clients`, installs the policy
    /// and loads every record (version 0, written by [`LOADER`]) with
    /// `loaders` threads. Returns once replication, if any, has drained.
    pub fn build(spec: &Spec, seed: u64, clients: &[&str], loaders: usize) -> Result<Self, String> {
        let (endpoint, cluster, controllers): (Arc<dyn RequestEndpoint>, _, _) =
            match spec.deployment {
                Deployment::Controller { .. } => {
                    let c = Arc::new(
                        PesosController::new(spec.controller_config())
                            .map_err(|e| format!("bootstrap: {e}"))?,
                    );
                    (c.clone(), None, vec![c])
                }
                Deployment::Cluster {
                    partitions,
                    backups,
                    ..
                } => {
                    let mut config =
                        ClusterConfig::with_controller(partitions, spec.controller_config());
                    config.backups_per_partition = backups;
                    let c = Arc::new(
                        ControllerCluster::new(config).map_err(|e| format!("bootstrap: {e}"))?,
                    );
                    let controllers = c.controllers();
                    (c.clone(), Some(c), controllers)
                }
            };
        endpoint.register_client(LOADER_CLIENT);
        for client in clients {
            endpoint.register_client(client);
        }
        let policy = if spec.policy {
            Some(
                endpoint
                    .put_policy(LOADER_CLIENT, OPEN_POLICY)
                    .map_err(|e| format!("put_policy: {e}"))?,
            )
        } else {
            None
        };
        let fixture = Fixture {
            endpoint,
            cluster,
            controllers,
            policy,
        };
        fixture.load(spec, seed, loaders)?;
        fixture.drain_replication(Duration::from_secs(60))?;
        Ok(fixture)
    }

    fn load(&self, spec: &Spec, seed: u64, loaders: usize) -> Result<(), String> {
        let stamper = Stamper::new(seed, LOADER, spec.value_size);
        let records = spec.mix.records as u32;
        let loaders = loaders.max(1) as u32;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..loaders)
                .map(|t| {
                    let stamper = &stamper;
                    s.spawn(move || -> Result<(), String> {
                        for key in (t..records).step_by(loaders as usize) {
                            let value = stamper.value(load_stamp(key));
                            let version = self
                                .endpoint
                                .put(LOADER_CLIENT, &key_name(key), value, self.policy, None, &[])
                                .map_err(|e| format!("load put {key}: {e}"))?;
                            if version != 0 {
                                return Err(format!("load put {key} landed at v{version}"));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("loader thread panicked"))
        })
    }

    /// The slowest backup's lag over all partitions (0 without replication).
    pub fn replication_lag(&self) -> u64 {
        self.cluster.as_ref().map_or(0, |c| {
            c.telemetry_snapshot(0)
                .partitions
                .iter()
                .filter_map(|p| p.replication.as_ref().map(|r| r.max_lag()))
                .max()
                .unwrap_or(0)
        })
    }

    /// Waits until every backup has applied the whole log.
    pub fn drain_replication(&self, limit: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let lag = self.replication_lag();
            if lag == 0 {
                return Ok(());
            }
            if start.elapsed() > limit {
                return Err(format!("replication lag still {lag} after {limit:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The partition primary that owns `key`.
    pub fn controller_for(&self, key: &str) -> &Arc<PesosController> {
        let index = self.cluster.as_ref().map_or(0, |c| c.partition_of(key));
        &self.controllers[index]
    }
}

/// The stamp of a record's load-phase value.
pub fn load_stamp(key: u32) -> Stamp {
    Stamp {
        key,
        writer: LOADER,
        seq: 0,
    }
}
