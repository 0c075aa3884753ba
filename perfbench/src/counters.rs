//! Layer counters read from the program's public stats APIs, so a window's
//! per-layer numbers are deltas of two readings.

use pesos_sgx::CostEvent;

use crate::workload::Fixture;

/// One reading of every counter the per-layer metrics use, summed over the
/// partition primaries and their drives.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub object_cache_hits: u64,
    pub object_cache_misses: u64,
    pub object_cache_evictions: u64,
    pub policy_cache_hits: u64,
    pub policy_cache_misses: u64,
    pub asyscall_calls: u64,
    pub asyscall_batches: u64,
    pub asyscall_slot_waits: u64,
    /// Highest concurrency any primary's interface reached (a gauge).
    pub asyscall_max_concurrency: u64,
    pub epc_page_faults: u64,
    /// Asynchronous calls and page faults priced by each controller's
    /// SGX cost model.
    pub sgx_charged_ns: u64,
    pub drive_writes: u64,
    pub drive_reads: u64,
    /// Drive bytes in use per partition primary, in partition order.
    pub primary_bytes: Vec<u64>,
    /// Operations served by each drive, in drive order.
    pub drive_ops: Vec<u64>,
    pub request_retries: u64,
    pub replication_appended: u64,
    pub replication_stalls: u64,
}

impl Counters {
    pub fn read(fixture: &Fixture) -> Counters {
        let mut c = Counters::default();
        for controller in &fixture.controllers {
            let store = controller.store();
            let oc = store.object_cache_stats();
            c.object_cache_hits += oc.hits;
            c.object_cache_misses += oc.misses;
            c.object_cache_evictions += oc.evictions;
            let pc = store.policy_cache_stats();
            c.policy_cache_hits += pc.hits;
            c.policy_cache_misses += pc.misses;
            let asy = store.asyscall_stats();
            c.asyscall_calls += asy.submitted;
            c.asyscall_batches += asy.batches;
            c.asyscall_slot_waits += asy.slot_waits;
            c.asyscall_max_concurrency = c.asyscall_max_concurrency.max(asy.max_concurrency);
            let faults = store.epc_stats().page_faults;
            c.epc_page_faults += faults;
            let model = controller.config().cost_model;
            c.sgx_charged_ns += asy.submitted * model.cost_ns(CostEvent::AsyncSyscall)
                + faults * model.cost_ns(CostEvent::EpcPageFault);
            c.primary_bytes.push(0);
            for drive in store.drives().iter() {
                let info = drive.info();
                *c.primary_bytes.last_mut().expect("pushed above") += info.used_bytes;
                c.drive_writes += info.stats.puts;
                c.drive_reads += info.stats.gets;
                c.drive_ops
                    .push(info.stats.puts + info.stats.gets + info.stats.deletes);
            }
        }
        if let Some(cluster) = &fixture.cluster {
            c.request_retries = cluster.retry_stats().request_retries;
            for p in cluster.telemetry_snapshot(0).partitions {
                if let Some(r) = p.replication {
                    c.replication_appended += r.appended;
                    c.replication_stalls += r.stalls;
                }
            }
        }
        c
    }
}
