"""Unit tests for the transactional substrate."""

import pytest

from repro.transactions import (
    AtomicObject,
    DeadlockError,
    LockConflictError,
    LockManager,
    LockMode,
    TransactionManager,
    TransactionStateError,
    TxnState,
    UndoLog,
    UndoRecord,
)
from repro.transactions.atomic_object import IntegrityError


class TestLockManager:
    def test_shared_locks_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, "r", LockMode.SHARED)
        assert lm.acquire(2, "r", LockMode.SHARED)
        assert lm.holds(1, "r", LockMode.SHARED)
        assert lm.holds(2, "r", LockMode.SHARED)

    def test_exclusive_conflicts(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            lm.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError):
            lm.acquire(2, "r", LockMode.EXCLUSIVE)

    def test_reentrant_and_strength(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.acquire(1, "r", LockMode.SHARED)  # weaker request ok
        assert lm.holds(1, "r", LockMode.EXCLUSIVE)
        assert lm.holds(1, "r", LockMode.SHARED)

    def test_upgrade_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.holds(1, "r", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_reader(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        lm.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError):
            lm.acquire(1, "r", LockMode.EXCLUSIVE)

    def test_release_wakes_waiter(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        granted = []
        assert not lm.acquire(
            2, "r", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: granted.append(2)
        )
        assert granted == []
        lm.release_all(1)
        assert granted == [2]
        assert lm.holds(2, "r", LockMode.EXCLUSIVE)

    def test_fifo_prevents_writer_starvation(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        granted = []
        lm.acquire(2, "r", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: granted.append("w"))
        # A new shared request must queue behind the waiting writer.
        with pytest.raises(LockConflictError):
            lm.acquire(3, "r", LockMode.SHARED)
        lm.acquire(3, "r", LockMode.SHARED, wait=True, on_granted=lambda: granted.append("r3"))
        lm.release_all(1)
        assert granted == ["w"]
        lm.release_all(2)
        assert granted == ["w", "r3"]

    def test_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "b", LockMode.EXCLUSIVE)
        lm.acquire(1, "b", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: None)
        with pytest.raises(DeadlockError) as exc_info:
            lm.acquire(2, "a", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: None)
        assert 2 in exc_info.value.cycle

    def test_three_party_deadlock(self):
        lm = LockManager()
        for txn, res in ((1, "a"), (2, "b"), (3, "c")):
            lm.acquire(txn, res, LockMode.EXCLUSIVE)
        lm.acquire(1, "b", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: None)
        lm.acquire(2, "c", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: None)
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", LockMode.EXCLUSIVE, wait=True, on_granted=lambda: None)

    def test_waiting_requires_callback(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(ValueError):
            lm.acquire(2, "r", LockMode.EXCLUSIVE, wait=True)

    def test_transfer_locks(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        lm.transfer(1, 2)
        assert not lm.holds(1, "r", LockMode.SHARED)
        assert lm.holds(2, "r", LockMode.EXCLUSIVE)

    def test_transfer_merges_strength(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        # After releasing, parent has shared; child exclusive transfers up.
        lm2 = LockManager()
        lm2.acquire(10, "r", LockMode.SHARED)
        lm2.acquire(11, "r", LockMode.SHARED)
        lm2.transfer(11, 10)
        assert lm2.holds(10, "r", LockMode.SHARED)

    def test_held_resources(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.SHARED)
        lm.acquire(1, "b", LockMode.EXCLUSIVE)
        assert sorted(lm.held_resources(1)) == ["a", "b"]
        lm.release_all(1)
        assert lm.held_resources(1) == []


class TestAtomicObject:
    def test_basic_state(self):
        obj = AtomicObject("acct", {"balance": 100})
        assert obj.get("balance") == 100
        assert obj.peek("balance") == 100
        assert obj.peek("missing", "dflt") == "dflt"
        with pytest.raises(KeyError):
            obj.get("missing")

    def test_put_returns_undo_info(self):
        obj = AtomicObject("o")
        old, existed = obj.put("k", 1)
        assert (old, existed) == (None, False)
        old, existed = obj.put("k", 2)
        assert (old, existed) == (1, True)

    def test_snapshot_restore(self):
        # A snapshot is a copy; the transaction's undo log, not a stored
        # snapshot, brings the state back to it.
        obj = AtomicObject("o", {"a": 1})
        snap = obj.snapshot()
        txn = TransactionManager().begin()
        txn.write(obj, "a", 2)
        txn.write(obj, "b", 3)
        assert snap == {"a": 1}
        txn.abort()
        assert obj.snapshot() == snap

    def test_integrity(self):
        obj = AtomicObject("acct", {"balance": 10}, invariant=lambda s: s["balance"] >= 0)
        obj.check_integrity()
        obj.put("balance", -5)
        with pytest.raises(IntegrityError):
            obj.check_integrity()


class TestUndoLog:
    def test_undo_reverses_in_order(self):
        obj = AtomicObject("o", {"k": 0})
        log = UndoLog()
        for value in (1, 2, 3):
            old, existed = obj.put("k", value)
            log.append(UndoRecord(obj, "k", old, existed))
        assert obj.get("k") == 3
        assert log.undo_all() == 3
        assert obj.get("k") == 0

    def test_undo_of_create_deletes(self):
        obj = AtomicObject("o")
        log = UndoLog()
        old, existed = obj.put("new", 1)
        log.append(UndoRecord(obj, "new", old, existed))
        log.undo_all()
        assert obj.peek("new") is None
        assert "new" not in obj.snapshot()


class TestTransactions:
    def test_commit_applies_and_bumps_version(self):
        tm = TransactionManager()
        obj = AtomicObject("acct", {"balance": 100})
        txn = tm.begin()
        txn.write(obj, "balance", 50)
        txn.commit()
        assert obj.get("balance") == 50
        assert obj.version == 1
        assert txn.state is TxnState.COMMITTED

    def test_abort_restores(self):
        tm = TransactionManager()
        obj = AtomicObject("acct", {"balance": 100})
        txn = tm.begin()
        txn.write(obj, "balance", 0)
        txn.abort()
        assert obj.get("balance") == 100
        assert obj.version == 0

    def test_abort_idempotent(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.abort()
        txn.abort()
        assert txn.state is TxnState.ABORTED

    def test_read_your_writes(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 1})
        txn = tm.begin()
        txn.write(obj, "k", 2)
        assert txn.read(obj, "k") == 2
        txn.commit()

    def test_isolation_write_blocks_reader(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 1})
        writer = tm.begin()
        writer.write(obj, "k", 2)
        reader = tm.begin()
        with pytest.raises(LockConflictError):
            reader.read(obj, "k")
        writer.commit()
        assert reader.read(obj, "k") == 2

    def test_operations_on_finished_txn_rejected(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 1})
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.write(obj, "k", 5)
        with pytest.raises(TransactionStateError):
            txn.read(obj, "k")
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_nested_commit_inherits_to_parent(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0})
        parent = tm.begin()
        child = parent.start_nested()
        child.write(obj, "k", 7)
        child.commit()
        # Parent abort must undo the child's committed-into-parent write.
        parent.abort()
        assert obj.get("k") == 0

    def test_nested_commit_then_parent_commit(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0})
        parent = tm.begin()
        child = parent.start_nested()
        child.write(obj, "k", 7)
        child.commit()
        parent.commit()
        assert obj.get("k") == 7
        assert obj.version == 1  # only top-level commit bumps

    def test_nested_abort_keeps_parent_effects(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0, "p": 0})
        parent = tm.begin()
        parent.write(obj, "p", 1)
        child = parent.start_nested()
        child.write(obj, "k", 7)
        child.abort()
        assert obj.get("k") == 0
        assert obj.get("p") == 1
        parent.commit()
        assert obj.snapshot() == {"k": 0, "p": 1}

    def test_parent_abort_aborts_active_children(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0})
        parent = tm.begin()
        child = parent.start_nested()
        child.write(obj, "k", 9)
        parent.abort()
        assert child.state is TxnState.ABORTED
        assert obj.get("k") == 0

    def test_commit_with_active_child_rejected(self):
        tm = TransactionManager()
        parent = tm.begin()
        parent.start_nested()
        with pytest.raises(TransactionStateError):
            parent.commit()

    def test_nested_lock_inheritance_keeps_isolation(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0})
        parent = tm.begin()
        child = parent.start_nested()
        child.write(obj, "k", 5)
        child.commit()
        outsider = tm.begin()
        with pytest.raises(LockConflictError):
            outsider.read(obj, "k")  # parent still holds the lock
        parent.commit()
        assert outsider.read(obj, "k") == 5

    def test_integrity_violation_aborts_commit(self):
        tm = TransactionManager()
        obj = AtomicObject("acct", {"balance": 10}, invariant=lambda s: s["balance"] >= 0)
        txn = tm.begin()
        txn.write(obj, "balance", -1)
        with pytest.raises(IntegrityError):
            txn.commit()
        assert txn.state is TxnState.ABORTED
        assert obj.get("balance") == 10

    def test_active_count(self):
        tm = TransactionManager()
        a = tm.begin()
        b = tm.begin()
        assert tm.active_count() == 2
        a.commit()
        b.abort()
        assert tm.active_count() == 0

    def test_deep_nesting(self):
        tm = TransactionManager()
        obj = AtomicObject("o", {"k": 0})
        t1 = tm.begin()
        t2 = t1.start_nested()
        t3 = t2.start_nested()
        t3.write(obj, "k", 3)
        t3.commit()
        t2.commit()
        t1.abort()
        assert obj.get("k") == 0
