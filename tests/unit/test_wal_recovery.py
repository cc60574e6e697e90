"""WAL, durable store, crash-restart recovery and the rejoin protocol."""

import pytest

from repro.net.latency import ConstantLatency
from repro.transactions import (
    AtomicObject,
    DurableStore,
    TransactionManager,
    WriteAheadLog,
    recover,
    scan_wal,
)
from repro.transactions.wal import WalError, replay_records


def _seed_log(path, fsync=False):
    """A log with one committed and one crash-cut transaction."""
    wal = WriteAheadLog(path, fsync=fsync)
    wal.log_begin(1)
    wal.log_write(1, "obj", "a", None, existed=False)
    wal.log_commit(1, top=True)
    wal.log_begin(2)
    wal.log_write(2, "obj", "a", 1, existed=True)
    wal.log_write(2, "obj", "b", None, existed=False)
    wal.log_prepare(2)
    wal.close()  # no verdict for txn 2: the crash cut it short
    return wal


class TestWalScan:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "node.wal"
        _seed_log(path)
        scan = scan_wal(path)
        assert not scan.torn
        assert [r["t"] for r in scan.records] == [
            "begin", "write", "commit", "begin", "write", "write", "prepare",
        ]

    @pytest.mark.parametrize(
        "tail",
        [
            b"deadbeef {\"t\":\"be",  # partial line, no newline
            b"00000000 {\"t\":\"begin\",\"txn\":9}\n",  # checksum mismatch
            b"deadbeef not-json\n",  # payload is not JSON
            b"6dd28e9b 3\n",  # valid-CRC JSON that is not a record object
        ],
    )
    def test_torn_tail_discarded(self, tmp_path, tail):
        path = tmp_path / "node.wal"
        _seed_log(path)
        good = scan_wal(path)
        with open(path, "ab") as fh:
            fh.write(tail)
        scan = scan_wal(path)
        assert scan.torn
        assert scan.records == good.records  # prefix never poisoned
        assert scan.valid_bytes == good.valid_bytes

    def test_recover_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "node.wal"
        _seed_log(path)
        with open(path, "ab") as fh:
            fh.write(b"deadbeef {\"t\":\"wri")
        recovery, wal = recover(path, fsync=False)
        wal.close()
        assert recovery.torn
        rescan = scan_wal(path)
        assert not rescan.torn  # the tail is gone from the file itself


class TestReplay:
    def test_incomplete_transaction_undone(self, tmp_path):
        path = tmp_path / "node.wal"
        _seed_log(path)
        obj = AtomicObject("obj", {"a": 1, "b": 2})  # post-crash durable state
        recovery, wal = recover(path, {"obj": obj}, fsync=False)
        wal.close()
        assert recovery.incomplete == (2,)
        # txn 1 committed (kept); txn 2's writes rolled back: a back to 1,
        # b removed (it did not exist before txn 2 wrote it).
        assert obj.snapshot() == {"a": 1}

    def test_double_restart_is_idempotent(self, tmp_path):
        path = tmp_path / "node.wal"
        _seed_log(path)
        obj = AtomicObject("obj", {"a": 1, "b": 2})
        first, wal = recover(path, {"obj": obj}, fsync=False)
        wal.close()
        snapshot = obj.snapshot()
        second, wal = recover(path, {"obj": obj}, fsync=False)
        wal.close()
        # The recovered-abort markers settle txn 2: nothing left to undo.
        assert first.incomplete == (2,)
        assert second.incomplete == ()
        assert second.undo_ops == []
        assert obj.snapshot() == snapshot

    def test_replay_matches_in_memory_abort(self, tmp_path):
        """Crash-replay must land on the state a runtime abort produces."""
        def run(mgr, obj):
            txn = mgr.begin()
            txn.write(obj, "x", (1, 2))  # tuple: pickle round-trip
            txn.write(obj, "y", "kept?")
            txn.write(obj, "x", {3: "four"})
            return txn

        # In-memory path: abort rolls back via UndoLog.undo_all.
        mem_obj = AtomicObject("st", {"x": 0})
        mem_mgr = TransactionManager()
        run(mem_mgr, mem_obj).abort()

        # Durable path: same writes, then a "crash" (no verdict record),
        # then WAL replay against the post-crash state.
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path, fsync=False)
        dur_obj = AtomicObject("st", {"x": 0})
        dur_mgr = TransactionManager(wal=wal)
        run(dur_mgr, dur_obj)
        wal.close()
        recovery, wal = recover(path, {"st": dur_obj}, fsync=False)
        wal.close()
        assert dur_obj.snapshot() == mem_obj.snapshot() == {"x": 0}
        # The pickle tag restored the exact old value type along the way.
        assert type(recovery.undo_ops[-1].old_value) is int

    def test_nested_commit_promotes_to_parent(self, tmp_path):
        """A child commit keeps writes undoable until the top level commits."""
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path, fsync=False)
        obj = AtomicObject("st", {"k": "old"})
        mgr = TransactionManager(wal=wal)
        top = mgr.begin()
        child = top.start_nested()
        child.write(obj, "k", "new")
        child.commit()  # relative: promotes to top, which never commits
        wal.close()
        recovery, wal = recover(path, {"st": obj}, fsync=False)
        wal.close()
        assert obj.snapshot() == {"k": "old"}
        assert set(recovery.incomplete) == {top.txn_id}

    def test_nested_under_committed_top_is_kept(self, tmp_path):
        path = tmp_path / "node.wal"
        wal = WriteAheadLog(path, fsync=False)
        obj = AtomicObject("st", {"k": "old"})
        mgr = TransactionManager(wal=wal)
        top = mgr.begin()
        child = top.start_nested()
        child.write(obj, "k", "new")
        child.commit()
        top.commit()
        wal.close()
        recovery, wal = recover(path, {"st": obj}, fsync=False)
        wal.close()
        assert recovery.incomplete == ()
        assert obj.snapshot() == {"k": "new"}

    def test_unknown_object_is_loud(self, tmp_path):
        path = tmp_path / "node.wal"
        _seed_log(path)
        with pytest.raises(WalError, match="absent from the recovery set"):
            recover(path, {"other": AtomicObject("other")}, fsync=False)

    def test_unknown_record_kinds_skipped(self):
        recovery = replay_records([
            {"t": "begin", "txn": 1},
            {"t": "future-extension", "whatever": True},
            {"t": "commit", "txn": 1, "top": True},
        ])
        assert recovery.incomplete == ()
        assert recovery.records_read == 3


class TestDurableStore:
    def test_first_boot_is_noop_recovery(self, tmp_path):
        obj = AtomicObject("st", {"progress": None})
        store = DurableStore(tmp_path / "n.wal", [obj], fsync=False)
        assert store.recovered_incomplete == ()
        assert store.last_action_state("A1") is None
        store.close()

    def test_restart_replays_checkpoint_and_undoes_work(self, tmp_path):
        path = tmp_path / "n.wal"
        obj = AtomicObject("st", {"progress": None})
        store = DurableStore(path, [obj], fsync=False)
        txn = store.manager.begin()
        txn.write(obj, "progress", "half-done")
        txn.prepare()
        store.checkpoint_action("A1", "raised", exception="E_left")
        store.close()  # crash: neither commit nor abort was logged

        reopened = DurableStore(path, [obj], fsync=False)
        assert reopened.recovered_incomplete == (txn.txn_id,)
        assert obj.snapshot() == {"progress": None}
        state = reopened.last_action_state("A1")
        assert state["state"] == "raised"
        assert state["exception"] == "E_left"
        reopened.close()


class TestManagerPruning:
    """Regression for the unbounded ``transactions`` registry growth."""

    def test_settled_trees_are_pruned(self):
        mgr = TransactionManager()
        obj = AtomicObject("st")
        for i in range(50):
            txn = mgr.begin()
            txn.write(obj, "k", i)
            if i % 2:
                txn.commit()
            else:
                txn.abort()
        assert len(mgr.transactions) == 0
        assert mgr.settled_trees == 50
        assert mgr.active_count() == 0

    def test_nested_settle_keeps_tree_until_top_settles(self):
        mgr = TransactionManager()
        obj = AtomicObject("st")
        top = mgr.begin()
        child = top.start_nested()
        child.write(obj, "k", 1)
        child.commit()
        # The enclosing transaction is still in flight: both stay indexed.
        assert top.txn_id in mgr.transactions
        assert child.txn_id in mgr.transactions
        assert mgr.settled_trees == 0
        top.commit()
        assert len(mgr.transactions) == 0
        assert mgr.settled_trees == 1

    def test_in_flight_transactions_stay_indexed(self):
        mgr = TransactionManager()
        open_txns = [mgr.begin() for _ in range(3)]
        assert len(mgr.transactions) == 3
        for txn in open_txns:
            txn.abort()
        assert len(mgr.transactions) == 0


class TestCrashRestartRecovery:
    """The rejoin protocol end to end, over real per-node WAL files."""

    def _run(self, tmp_path, restart_at, crash="O0004", crash_at=10.5, q=0, **kw):
        from repro.core.variants import run_action

        return run_action(
            "ct", 5, 2, q, raise_at=10.0, latency=ConstantLatency(1.0),
            hb_interval=2.0, hb_timeout=12.0, restart_at=restart_at,
            durable_dir=str(tmp_path), until=400.0,
            crashes=[(crash, crash_at)], **kw,
        )

    def test_early_restart_rejoins_with_agreed_handler(self, tmp_path):
        result = self._run(tmp_path, restart_at=16.0)
        returnee = result.participants["O0004"]
        assert result.restarted == ("O0004",)
        assert returnee.rejoin_outcome == "rejoined"
        assert returnee.handled is not None
        # Agreement holds across survivors *and* the returnee.
        assert len({
            p.handled.name()
            for p in result.participants.values()
            if p.handled is not None
        }) == 1
        self._check_durability(result, "O0004")

    def test_late_restart_confirms_abort(self, tmp_path):
        result = self._run(tmp_path, restart_at=60.0)
        returnee = result.participants["O0004"]
        assert returnee.rejoin_outcome == "confirmed-abort"
        # Survivors resolved over the shrunk view; the returnee accepts
        # the verdict rather than re-running a handler of its own.
        assert result.all_handled()
        self._check_durability(result, "O0004")

    def test_restarted_resolver_rejoins_and_commits(self, tmp_path):
        # m1 is the biggest raiser — the would-be resolver.
        result = self._run(tmp_path, restart_at=16.0, crash="O0001")
        returnee = result.participants["O0001"]
        assert returnee.rejoin_outcome == "rejoined"
        assert returnee.handled is not None
        assert result.all_handled()
        self._check_durability(result, "O0001")

    def test_nested_victim_restart_mid_abortion(self, tmp_path):
        result = self._run(
            tmp_path, restart_at=16.0, crash="O0002", crash_at=13.0,
            q=1, abort_duration=5.0,
        )
        returnee = result.participants["O0002"]
        assert returnee.rejoin_outcome == "rejoined"
        assert returnee.handled is not None
        self._check_durability(result, "O0002")

    def test_fault_free_counts_survive_durable_layer(self, tmp_path):
        """Durability must not cost protocol messages."""
        from repro.analysis import crash_tolerant_messages
        from repro.core.variants import run_action

        result = run_action(
            "ct", 4, 2, 1, raise_at=10.0, latency=ConstantLatency(1.0),
            hb_interval=2.0, hb_timeout=12.0, abort_duration=5.0,
            durable_dir=str(tmp_path), until=400.0,
        )
        assert result.messages() == crash_tolerant_messages(4, 2, 1)
        assert result.all_handled()

    def _check_durability(self, result, victim):
        store = result.stores[victim]
        # The WAL replay undid the work transaction the crash cut short
        # and the durable object is back to its pre-action snapshot.
        assert store.recovered_incomplete
        obj = next(iter(store.objects.values()))
        assert obj.snapshot() == {"progress": None}


class TestRecoveryCampaign:
    def test_cell_id_round_trip(self):
        from repro.workloads.campaigns import CampaignCell, parse_cell_id

        cell = CampaignCell(
            "paper", "ct", "crash_restart_early", 5, 2, 1, seed=3
        )
        assert parse_cell_id(cell.cell_id) == cell

    def test_restart_spec_and_expected_outcome(self):
        from repro.workloads.campaigns import (
            RESTART_EARLY_AT,
            RESTART_LATE_AT,
            CampaignCell,
            expected_rejoin_outcome,
            restart_spec,
        )

        def cell(fault):
            return CampaignCell("paper", "ct", fault, 5, 2, 0)

        assert restart_spec(cell("crash_restart_early")) == RESTART_EARLY_AT
        assert restart_spec(cell("crash_restart_late")) == RESTART_LATE_AT
        assert restart_spec(cell("crash_restart_resolver")) == RESTART_EARLY_AT
        assert restart_spec(cell("none")) is None
        assert expected_rejoin_outcome(cell("crash_restart_early")) == "rejoined"
        assert expected_rejoin_outcome(cell("crash_restart_late")) == (
            "confirmed-abort"
        )
        assert expected_rejoin_outcome(cell("none")) is None

    def test_recovery_matrix_shape(self):
        from repro.workloads.campaigns import RECOVERY_FAULTS, recovery_matrix

        smoke = recovery_matrix(smoke=True)
        full = recovery_matrix(smoke=False)
        assert len(smoke) == 2 * (len(RECOVERY_FAULTS) + 1)
        assert len(full) == 8 * (len(RECOVERY_FAULTS) + 1)
        assert all(c.variant == "ct" for c in full)
        # The crash-mid-abortion path is always covered at least once.
        assert any(c.q > 0 for c in full)

    @pytest.mark.parametrize(
        "fault",
        ["crash_restart_early", "crash_restart_late", "crash_restart_resolver"],
    )
    def test_recovery_cells_classify_ok(self, fault):
        from repro.workloads.campaigns import CampaignCell, run_cell

        outcome = run_cell(CampaignCell("paper", "ct", fault, 5, 2, 1))
        assert outcome.classification == "OK", outcome.violations

    def test_recovery_fault_rejected_off_ct(self):
        from repro.workloads.campaigns import CampaignCell, observe_cell

        cell = CampaignCell("paper", "base", "crash_restart_early", 5, 2, 0)
        with pytest.raises(ValueError, match="crash-tolerant"):
            observe_cell(cell)

    def test_rejoin_sabotage_flips_to_violation(self):
        from repro.workloads.campaigns import CampaignCell, run_cell

        outcome = run_cell(CampaignCell(
            "paper", "ct", "crash_restart_early", 5, 2, 0,
            sabotage="rejoin",
        ))
        assert outcome.classification == "INVARIANT-VIOLATION"
