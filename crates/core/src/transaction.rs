//! ACID multi-object transactions (VLL-variant lock manager).
//!
//! Pesos wraps atomic updates to multiple objects in transactions and uses a
//! modified VLL locking algorithm (paper §4.4): a transaction tries to lock
//! all of its keys before executing; if every lock is free it executes
//! immediately, otherwise it waits in a queue and VLL's ordering guarantees
//! that by the time it reaches the front all of its keys are unlocked.
//! Distributed transactions are explicitly out of scope, and
//! non-transactional accesses to the same keys are permitted (their outcome
//! relative to a concurrent transaction is unspecified, as in the paper).

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
    /// New value, shared so a coordinator can stage it on a branch and log
    /// it after commit without copying.
    pub value: Payload,
    /// Policy to associate, encoded as the hex policy id.
    pub policy_id: Option<String>,
}

/// The outcome of a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxOutcome {
    /// Versions assigned to each write, in the order the writes were added.
    pub write_versions: Vec<u64>,
    /// Values read, in the order the reads were added.
    pub read_values: Vec<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Transaction {
    owner: String,
    reads: Vec<String>,
    writes: Vec<TxWrite>,
}

#[derive(Default)]
struct LockTable {
    /// Exclusive/shared lock counters per key (VLL keeps these in a small
    /// per-key structure rather than the database tuple itself).
    exclusive: HashMap<String, u64>,
    shared: HashMap<String, u64>,
    /// Queue of blocked transaction ids, oldest first.
    queue: VecDeque<u64>,
}

/// The transaction manager.
pub struct TransactionManager {
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
    /// Creates an empty manager.
    pub fn new() -> Self {
        TransactionManager {
            next_id: AtomicU64::new(1),
            transactions: Mutex::with_rank(parking_lot::lock_order::TX_TABLE, HashMap::new()),
            locks: Mutex::with_rank(parking_lot::lock_order::TX_LOCKS, LockTable::default()),
            unblocked: Condvar::new(),
        }
    }

    /// Begins a transaction for `owner` and returns its handle.
    pub fn create(&self, owner: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.transactions.lock().insert(
            id,
            Transaction {
                owner: owner.to_string(),
                ..Transaction::default()
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
        f: impl FnOnce(&mut Transaction) -> R,
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
        Ok(f(tx))
    }

    /// Adds a read to the transaction.
    pub fn add_read(&self, id: u64, owner: &str, key: &str) -> Result<(), PesosError> {
        self.with_tx(id, owner, |tx| tx.reads.push(key.to_string()))
    }

    /// Adds a write to the transaction.
    pub fn add_write(&self, id: u64, owner: &str, write: TxWrite) -> Result<(), PesosError> {
        self.with_tx(id, owner, |tx| tx.writes.push(write))
    }

    /// Aborts and discards the transaction.
    pub fn abort(&self, id: u64, owner: &str) -> Result<(), PesosError> {
        let mut txs = self.transactions.lock();
        match txs.get(&id) {
            Some(tx) if tx.owner == owner => {
                txs.remove(&id);
                Ok(())
            }
            Some(_) => Err(PesosError::TransactionAborted(
                "transaction owned by a different client".into(),
            )),
            None => Err(PesosError::TransactionAborted(format!(
                "unknown transaction {id}"
            ))),
        }
    }

    /// Takes ownership of the transaction and acquires all of its locks
    /// (waiting VLL-style if any are busy), returning a guard that holds
    /// them until it is dropped.
    ///
    /// This is the first phase of a two-phase commit: a distributed
    /// coordinator prepares one branch per participant, and only when every
    /// branch is prepared (locks held, validation passed) are the writes
    /// applied. Dropping the guard releases the locks, so an abort after a
    /// failed sibling branch is just dropping the prepared guards.
    ///
    /// Deadlock discipline: a coordinator preparing branches on several
    /// managers must prepare them in one globally consistent order (the
    /// cluster layer uses ascending partition index); VLL's queue prevents
    /// cycles within one manager but not across managers.
    pub fn prepare(&self, id: u64, owner: &str) -> Result<PreparedTransaction<'_>, PesosError> {
        let tx = {
            let mut txs = self.transactions.lock();
            match txs.remove(&id) {
                Some(tx) if tx.owner == owner => tx,
                Some(tx) => {
                    // Wrong owner: put the transaction back untouched.
                    txs.insert(id, tx);
                    return Err(PesosError::TransactionAborted(
                        "transaction owned by a different client".into(),
                    ));
                }
                None => {
                    return Err(PesosError::TransactionAborted(format!(
                        "unknown transaction {id}"
                    )))
                }
            }
        };

        self.acquire_locks(id, &tx);
        Ok(PreparedTransaction {
            manager: self,
            tx: Some(tx),
        })
    }

    /// Commits the transaction: acquires all locks (waiting VLL-style if any
    /// are busy), runs `apply` with the buffered reads and writes, releases
    /// the locks and returns the outcome produced by `apply`.
    pub fn commit<F>(&self, id: u64, owner: &str, apply: F) -> Result<TxOutcome, PesosError>
    where
        F: FnOnce(&[String], &[TxWrite]) -> Result<TxOutcome, PesosError>,
    {
        let prepared = self.prepare(id, owner)?;
        apply(prepared.reads(), prepared.writes())
        // `prepared` drops here, releasing the locks.
    }

    fn keys_free(table: &LockTable, tx: &Transaction) -> bool {
        for key in &tx.writes {
            if table.exclusive.get(&key.key).copied().unwrap_or(0) > 0
                || table.shared.get(&key.key).copied().unwrap_or(0) > 0
            {
                return false;
            }
        }
        for key in &tx.reads {
            if table.exclusive.get(key).copied().unwrap_or(0) > 0 {
                return false;
            }
        }
        true
    }

    fn acquire_locks(&self, id: u64, tx: &Transaction) {
        let mut table = self.locks.lock();
        if Self::keys_free(&table, tx) && table.queue.is_empty() {
            Self::grab(&mut table, tx);
            return;
        }
        // Blocked: wait until we are at the front of the queue and our keys
        // are free (VLL guarantees this eventually holds).
        table.queue.push_back(id);
        loop {
            let at_front = table.queue.front() == Some(&id);
            if at_front && Self::keys_free(&table, tx) {
                table.queue.pop_front();
                Self::grab(&mut table, tx);
                return;
            }
            self.unblocked.wait(&mut table);
        }
    }

    fn grab(table: &mut LockTable, tx: &Transaction) {
        for w in &tx.writes {
            *table.exclusive.entry(w.key.clone()).or_insert(0) += 1;
        }
        for r in &tx.reads {
            *table.shared.entry(r.clone()).or_insert(0) += 1;
        }
    }

    fn release_locks(&self, tx: &Transaction) {
        let mut table = self.locks.lock();
        for w in &tx.writes {
            if let Some(c) = table.exclusive.get_mut(&w.key) {
                *c = c.saturating_sub(1);
            }
        }
        for r in &tx.reads {
            if let Some(c) = table.shared.get_mut(r) {
                *c = c.saturating_sub(1);
            }
        }
        self.unblocked.notify_all();
    }
}

/// A transaction whose locks are held (two-phase-commit "prepared" state).
///
/// Produced by [`TransactionManager::prepare`]; the locks are released when
/// the guard is dropped, whether the coordinator committed or aborted, so a
/// panic or early return cannot strand a VLL queue.
pub struct PreparedTransaction<'a> {
    manager: &'a TransactionManager,
    tx: Option<Transaction>,
}

impl PreparedTransaction<'_> {
    /// The buffered read keys, in the order they were added.
    ///
    /// `tx` is `None` only after `Drop` took it, which cannot overlap a
    /// live borrow; the empty fallback keeps the accessor panic-free.
    pub fn reads(&self) -> &[String] {
        match &self.tx {
            Some(tx) => &tx.reads,
            None => &[],
        }
    }

    /// The buffered writes, in the order they were added.
    pub fn writes(&self) -> &[TxWrite] {
        match &self.tx {
            Some(tx) => &tx.writes,
            None => &[],
        }
    }
}

impl Drop for PreparedTransaction<'_> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.manager.release_locks(&tx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        let outcome = mgr
            .commit(id, "alice", |reads, writes| {
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
        assert!(mgr
            .commit(id, "alice", |_, _| Ok(TxOutcome::default()))
            .is_err());
    }

    #[test]
    fn ownership_is_enforced() {
        let mgr = TransactionManager::new();
        let id = mgr.create("alice");
        assert!(mgr.add_read(id, "bob", "x").is_err());
        assert!(mgr.abort(id, "bob").is_err());
        assert!(mgr
            .commit(id, "bob", |_, _| Ok(TxOutcome::default()))
            .is_err());
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
        let err = mgr
            .commit(id, "c", |_, _| Err(PesosError::PolicyDenied("no".into())))
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
        mgr.commit(id2, "c", |_, _| Ok(TxOutcome::default()))
            .unwrap();
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
                mgr.commit(id, "worker", |_, writes| {
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
        let prepared = mgr.prepare(a, "c").unwrap();
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
            std::thread::spawn(move || mgr2.commit(b, "c", |_, _| Ok(TxOutcome::default())));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished(), "locks released before drop");
        drop(prepared);
        handle.join().unwrap().unwrap();
        // Preparing an unknown or foreign transaction fails like commit.
        assert!(mgr.prepare(a, "c").is_err());
        let c = mgr.create("owner");
        assert!(mgr.prepare(c, "other").is_err());
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
        mgr.commit(b, "x", |_, _| Ok(TxOutcome::default())).unwrap();
        mgr.commit(a, "x", |_, _| Ok(TxOutcome::default())).unwrap();
    }
}
