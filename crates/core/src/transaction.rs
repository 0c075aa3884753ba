//! ACID multi-object transactions (VLL-variant lock manager).
//!
//! Pesos wraps atomic updates to multiple objects in transactions and uses a
//! modified VLL locking algorithm (paper §4.4): a transaction tries to lock
//! all of its keys before executing; if every lock is free it executes
//! immediately, otherwise it waits in a queue and VLL's ordering guarantees
//! that by the time it reaches the front all of its keys are unlocked.
//! Distributed transactions are out of scope in the paper, and
//! non-transactional accesses to the same keys are permitted (their outcome
//! relative to a concurrent transaction is unspecified, as in the paper).
//!
//! The buffer has two users. Each controller buffers its own transactions
//! here and commits them as `take` → `lock` → apply. The cluster
//! coordinator (`pesos-cluster`) buffers cross-partition transactions in a
//! second manager whose ids carry a tag bit; at commit it takes the ops,
//! splits them by owning partition and hands each branch's ops straight to
//! that partition's [`TransactionManager::lock`], so a branch never opens a
//! transaction of its own.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};
use pesos_kinetic::Payload;

use crate::error::PesosError;

/// A buffered transactional write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxWrite {
    /// Object key.
    pub key: String,
    /// New value, shared so a coordinator can hand it to a branch and log
    /// it after commit without copying.
    pub value: Payload,
    /// Policy to associate, encoded as the hex policy id.
    pub policy_id: Option<String>,
}

/// The buffered operations of a transaction, or of one partition's branch
/// of a cluster transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxOps {
    /// Keys read, in the order the reads were added.
    pub reads: Vec<String>,
    /// Writes, in the order they were added.
    pub writes: Vec<TxWrite>,
}

/// The outcome of a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxOutcome {
    /// Versions assigned to each write, in the order the writes were added.
    pub write_versions: Vec<u64>,
    /// Values read, in the order the reads were added.
    pub read_values: Vec<Vec<u8>>,
}

struct Transaction {
    owner: String,
    ops: TxOps,
}

#[derive(Default)]
struct LockTable {
    /// Exclusive/shared lock counters per key (VLL keeps these in a small
    /// per-key structure rather than the database tuple itself).
    exclusive: HashMap<String, u64>,
    shared: HashMap<String, u64>,
    /// Queue of blocked lock requests by ticket, oldest first.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// The transaction manager: the open-transaction buffer plus the VLL lock
/// table.
pub struct TransactionManager {
    id_tag: u64,
    next_id: AtomicU64,
    transactions: Mutex<HashMap<u64, Transaction>>,
    locks: Mutex<LockTable>,
    unblocked: Condvar,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// Creates an empty manager with dense, untagged ids.
    pub fn new() -> Self {
        Self::with_id_tag(0)
    }

    /// Creates an empty manager whose every id has the bits of `tag` set,
    /// so its ids can never collide with an untagged manager's in a shared
    /// outcome map.
    pub fn with_id_tag(tag: u64) -> Self {
        TransactionManager {
            id_tag: tag,
            next_id: AtomicU64::new(1),
            transactions: Mutex::with_rank(parking_lot::lock_order::TX_TABLE, HashMap::new()),
            locks: Mutex::with_rank(parking_lot::lock_order::TX_LOCKS, LockTable::default()),
            unblocked: Condvar::new(),
        }
    }

    /// Begins a transaction for `owner` and returns its handle.
    pub fn create(&self, owner: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) | self.id_tag;
        self.transactions.lock().insert(
            id,
            Transaction {
                owner: owner.to_string(),
                ops: TxOps::default(),
            },
        );
        id
    }

    /// Number of open (not yet committed or aborted) transactions.
    pub fn open_count(&self) -> usize {
        self.transactions.lock().len()
    }

    fn with_tx<R>(
        &self,
        id: u64,
        owner: &str,
        f: impl FnOnce(&mut TxOps) -> R,
    ) -> Result<R, PesosError> {
        let mut txs = self.transactions.lock();
        let tx = txs
            .get_mut(&id)
            .ok_or_else(|| PesosError::TransactionAborted(format!("unknown transaction {id}")))?;
        if tx.owner != owner {
            return Err(PesosError::TransactionAborted(
                "transaction owned by a different client".into(),
            ));
        }
        Ok(f(&mut tx.ops))
    }

    /// Adds a read to the transaction.
    pub fn add_read(&self, id: u64, owner: &str, key: &str) -> Result<(), PesosError> {
        self.with_tx(id, owner, |ops| ops.reads.push(key.to_string()))
    }

    /// Adds a write to the transaction.
    pub fn add_write(&self, id: u64, owner: &str, write: TxWrite) -> Result<(), PesosError> {
        self.with_tx(id, owner, |ops| ops.writes.push(write))
    }

    /// Aborts and discards the transaction.
    pub fn abort(&self, id: u64, owner: &str) -> Result<(), PesosError> {
        self.take(id, owner).map(drop)
    }

    /// Removes the transaction from the buffer and returns its reads and
    /// writes, for committing. A transaction owned by someone else stays
    /// buffered untouched.
    pub fn take(&self, id: u64, owner: &str) -> Result<TxOps, PesosError> {
        let mut txs = self.transactions.lock();
        match txs.remove(&id) {
            Some(tx) if tx.owner == owner => Ok(tx.ops),
            Some(tx) => {
                txs.insert(id, tx);
                Err(PesosError::TransactionAborted(
                    "transaction owned by a different client".into(),
                ))
            }
            None => Err(PesosError::TransactionAborted(format!(
                "unknown transaction {id}"
            ))),
        }
    }

    /// Acquires the locks of `ops` (waiting VLL-style if any are busy) and
    /// returns a guard that holds them until it is dropped.
    ///
    /// This is the first phase of a two-phase commit: a distributed
    /// coordinator locks one branch per participant, and only when every
    /// branch is prepared (locks held, validation passed) are the writes
    /// applied. Dropping the guard releases the locks, so an abort after a
    /// failed sibling branch is just dropping the prepared guards.
    ///
    /// Deadlock discipline: a coordinator locking branches on several
    /// managers must lock them in one globally consistent order (the
    /// cluster layer uses ascending partition index); VLL's queue prevents
    /// cycles within one manager but not across managers.
    pub fn lock(&self, ops: TxOps) -> PreparedTransaction<'_> {
        self.acquire_locks(&ops);
        PreparedTransaction { manager: self, ops }
    }

    fn keys_free(table: &LockTable, ops: &TxOps) -> bool {
        for key in &ops.writes {
            if table.exclusive.get(&key.key).copied().unwrap_or(0) > 0
                || table.shared.get(&key.key).copied().unwrap_or(0) > 0
            {
                return false;
            }
        }
        for key in &ops.reads {
            if table.exclusive.get(key).copied().unwrap_or(0) > 0 {
                return false;
            }
        }
        true
    }

    fn acquire_locks(&self, ops: &TxOps) {
        let mut table = self.locks.lock();
        if Self::keys_free(&table, ops) && table.queue.is_empty() {
            Self::grab(&mut table, ops);
            return;
        }
        // Blocked: wait until we are at the front of the queue and our keys
        // are free (VLL guarantees this eventually holds).
        let ticket = table.next_ticket;
        table.next_ticket += 1;
        table.queue.push_back(ticket);
        loop {
            let at_front = table.queue.front() == Some(&ticket);
            if at_front && Self::keys_free(&table, ops) {
                table.queue.pop_front();
                Self::grab(&mut table, ops);
                return;
            }
            self.unblocked.wait(&mut table);
        }
    }

    fn grab(table: &mut LockTable, ops: &TxOps) {
        for w in &ops.writes {
            *table.exclusive.entry(w.key.clone()).or_insert(0) += 1;
        }
        for r in &ops.reads {
            *table.shared.entry(r.clone()).or_insert(0) += 1;
        }
    }

    fn release_locks(&self, ops: &TxOps) {
        let mut table = self.locks.lock();
        for w in &ops.writes {
            if let Some(c) = table.exclusive.get_mut(&w.key) {
                *c = c.saturating_sub(1);
            }
        }
        for r in &ops.reads {
            if let Some(c) = table.shared.get_mut(r) {
                *c = c.saturating_sub(1);
            }
        }
        self.unblocked.notify_all();
    }
}

/// Operations whose locks are held (two-phase-commit "prepared" state).
///
/// Produced by [`TransactionManager::lock`]; the locks are released when
/// the guard is dropped, whether the coordinator committed or aborted, so a
/// panic or early return cannot strand a VLL queue.
pub struct PreparedTransaction<'a> {
    manager: &'a TransactionManager,
    ops: TxOps,
}

impl PreparedTransaction<'_> {
    /// The locked read keys, in the order they were added.
    pub fn reads(&self) -> &[String] {
        &self.ops.reads
    }

    /// The locked writes, in the order they were added.
    pub fn writes(&self) -> &[TxWrite] {
        &self.ops.writes
    }
}

impl Drop for PreparedTransaction<'_> {
    fn drop(&mut self) {
        self.manager.release_locks(&self.ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The single-controller commit shape over the two public steps:
    /// take the buffered ops, lock them, run `apply`, release on return.
    fn commit<F>(
        mgr: &TransactionManager,
        id: u64,
        owner: &str,
        apply: F,
    ) -> Result<TxOutcome, PesosError>
    where
        F: FnOnce(&[String], &[TxWrite]) -> Result<TxOutcome, PesosError>,
    {
        let prepared = mgr.lock(mgr.take(id, owner)?);
        apply(prepared.reads(), prepared.writes())
    }

    #[test]
    fn create_add_commit_flow() {
        let mgr = TransactionManager::new();
        let id = mgr.create("alice");
        mgr.add_write(
            id,
            "alice",
            TxWrite {
                key: "a".into(),
                value: b"1".into(),
                policy_id: None,
            },
        )
        .unwrap();
        mgr.add_read(id, "alice", "b").unwrap();
        let outcome = commit(&mgr, id, "alice", |reads, writes| {
            assert_eq!(reads, &["b".to_string()]);
            assert_eq!(writes.len(), 1);
            Ok(TxOutcome {
                write_versions: vec![0],
                read_values: vec![b"existing".to_vec()],
            })
        })
        .unwrap();
        assert_eq!(outcome.write_versions, vec![0]);
        assert_eq!(mgr.open_count(), 0);
        // Committing twice fails.
        assert!(commit(&mgr, id, "alice", |_, _| Ok(TxOutcome::default())).is_err());
    }

    #[test]
    fn ownership_is_enforced() {
        let mgr = TransactionManager::new();
        let id = mgr.create("alice");
        assert!(mgr.add_read(id, "bob", "x").is_err());
        assert!(mgr.abort(id, "bob").is_err());
        assert!(commit(&mgr, id, "bob", |_, _| Ok(TxOutcome::default())).is_err());
        mgr.abort(id, "alice").unwrap();
        assert!(mgr.abort(id, "alice").is_err());
    }

    #[test]
    fn failed_apply_propagates_and_releases_locks() {
        let mgr = TransactionManager::new();
        let id = mgr.create("c");
        mgr.add_write(
            id,
            "c",
            TxWrite {
                key: "k".into(),
                value: Payload::new(),
                policy_id: None,
            },
        )
        .unwrap();
        let err = commit(&mgr, id, "c", |_, _| {
            Err(PesosError::PolicyDenied("no".into()))
        })
        .unwrap_err();
        assert!(matches!(err, PesosError::PolicyDenied(_)));
        // A later transaction on the same key is not blocked forever.
        let id2 = mgr.create("c");
        mgr.add_write(
            id2,
            "c",
            TxWrite {
                key: "k".into(),
                value: Payload::new(),
                policy_id: None,
            },
        )
        .unwrap();
        commit(&mgr, id2, "c", |_, _| Ok(TxOutcome::default())).unwrap();
    }

    #[test]
    fn concurrent_transactions_serialize_on_conflicting_keys() {
        let mgr = Arc::new(TransactionManager::new());
        let counter = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let mgr = Arc::clone(&mgr);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let id = mgr.create("worker");
                mgr.add_write(
                    id,
                    "worker",
                    TxWrite {
                        key: "shared-counter".into(),
                        value: vec![t].into(),
                        policy_id: None,
                    },
                )
                .unwrap();
                commit(&mgr, id, "worker", |_, writes| {
                    // Critical section: no other transaction holding the key
                    // may interleave here.
                    let mut guard = counter.lock();
                    guard.push(writes[0].value[0]);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(TxOutcome::default())
                })
                .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.lock().len(), 8);
    }

    #[test]
    fn prepared_transactions_hold_locks_until_dropped() {
        let mgr = Arc::new(TransactionManager::new());
        let a = mgr.create("c");
        mgr.add_write(
            a,
            "c",
            TxWrite {
                key: "contested".into(),
                value: vec![1].into(),
                policy_id: None,
            },
        )
        .unwrap();
        let prepared = mgr.lock(mgr.take(a, "c").unwrap());
        assert_eq!(prepared.writes().len(), 1);
        assert!(prepared.reads().is_empty());
        // A second transaction on the same key blocks until the prepared
        // guard is dropped (abort path: no apply ever ran).
        let b = mgr.create("c");
        mgr.add_write(
            b,
            "c",
            TxWrite {
                key: "contested".into(),
                value: vec![2].into(),
                policy_id: None,
            },
        )
        .unwrap();
        let mgr2 = Arc::clone(&mgr);
        let handle =
            std::thread::spawn(move || commit(&mgr2, b, "c", |_, _| Ok(TxOutcome::default())));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "locks released before drop");
        drop(prepared);
        handle.join().unwrap().unwrap();
        // Taking an unknown or foreign transaction fails like commit.
        assert!(mgr.take(a, "c").is_err());
        let c = mgr.create("owner");
        assert!(mgr.take(c, "other").is_err());
    }

    #[test]
    fn disjoint_transactions_do_not_block_each_other() {
        let mgr = Arc::new(TransactionManager::new());
        let a = mgr.create("x");
        mgr.add_write(
            a,
            "x",
            TxWrite {
                key: "key-a".into(),
                value: Payload::new(),
                policy_id: None,
            },
        )
        .unwrap();
        let b = mgr.create("x");
        mgr.add_write(
            b,
            "x",
            TxWrite {
                key: "key-b".into(),
                value: Payload::new(),
                policy_id: None,
            },
        )
        .unwrap();
        // Commit b while a is still open: must not deadlock.
        commit(&mgr, b, "x", |_, _| Ok(TxOutcome::default())).unwrap();
        commit(&mgr, a, "x", |_, _| Ok(TxOutcome::default())).unwrap();
    }

    #[test]
    fn tagged_ids_carry_the_tag() {
        let tag = 1 << 63;
        let mgr = TransactionManager::with_id_tag(tag);
        let id = mgr.create("alice");
        assert_eq!(id & tag, tag);
        assert_eq!(mgr.open_count(), 1);
        assert_eq!(TransactionManager::new().create("alice") & tag, 0);
    }

    #[test]
    fn take_returns_the_buffered_ops_once() {
        let mgr = TransactionManager::new();
        let id = mgr.create("alice");
        mgr.add_read(id, "alice", "a").unwrap();
        let write = TxWrite {
            key: "b".into(),
            value: vec![1].into(),
            policy_id: None,
        };
        mgr.add_write(id, "alice", write.clone()).unwrap();
        assert!(mgr.take(id, "bob").is_err());
        let ops = mgr.take(id, "alice").unwrap();
        assert_eq!(ops.reads, vec!["a".to_string()]);
        assert_eq!(ops.writes, vec![write]);
        assert!(mgr.take(id, "alice").is_err());
        assert_eq!(mgr.open_count(), 0);
    }
}
