"""Tests for the offline consistency checkers (repro.obs.lincheck),
driven by hand-built histories with known verdicts."""

import pytest

from repro.obs.history import Operation, OperationHistory
from repro.obs.lincheck import HistoryOracle, check_history


def op(index, process, what, key="", args=None, result=None, status="ok",
       inv=0, ret=None):
    """A hand-built operation; ``inv``/``ret`` double as virtual times
    and sequence positions (``ret=None`` = never returned)."""
    return Operation(index=index, process=process, op=what, key=key,
                     args=args, result=result, status=status,
                     invoked_at=float(inv),
                     returned_at=None if ret is None else float(ret),
                     inv_seq=inv, ret_seq=ret)


def hist(ops, semantics, initial=None):
    return OperationHistory(list(ops), scenario="hand-built", seed=0,
                            semantics=semantics, initial=initial)


# ---------------------------------------------------------------------------
# Wing–Gong: register
# ---------------------------------------------------------------------------

def test_sequential_register_history_is_linearizable():
    result = check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result="1", inv=3, ret=4),
        op(2, "c0", "w", key="x", args="2", inv=5, ret=6),
        op(3, "c1", "r", key="x", result="2", inv=7, ret=8),
    ], "register"))
    assert result.ok
    assert result.checked == 4


def test_stale_read_is_rejected_with_minimal_subhistory():
    result = check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result="0", inv=3, ret=4),
    ], "register", initial={"x": "0"}))
    assert not result.ok
    assert result.key == "x"
    assert "no linearization" in result.reason
    # The minimal sub-history keeps only jointly-necessary operations:
    # the completed write plus the stale read of the initial value
    # (each passes the checker on its own).
    assert [o.index for o in result.violation] == [0, 1]
    for i in range(len(result.violation)):
        subset = result.violation[:i] + result.violation[i + 1:]
        assert check_history(hist(subset, "register",
                                  initial={"x": "0"})).ok


def test_concurrent_write_and_read_may_order_either_way():
    for seen in (None, "1"):
        result = check_history(hist([
            op(0, "c0", "w", key="x", args="1", inv=1, ret=4),
            op(1, "c1", "r", key="x", result=seen, inv=2, ret=3),
        ], "register"))
        assert result.ok, "read of %r should linearize" % seen


def test_initial_value_grounds_the_first_read():
    result = check_history(hist([
        op(0, "c0", "r", key="x", result="v0", inv=1, ret=2),
    ], "register", initial={"x": "v0"}))
    assert result.ok


def test_info_mutator_may_or_may_not_have_applied():
    # The write's outcome is unknown: a later read may see it...
    assert check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, status="info"),
        op(1, "c1", "r", key="x", result="1", inv=2, ret=3),
    ], "register")).ok
    # ...or not see it...
    assert check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, status="info"),
        op(1, "c1", "r", key="x", result=None, inv=2, ret=3),
    ], "register")).ok
    # ...but a register cannot un-lose a write: seen then unseen fails.
    result = check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, status="info"),
        op(1, "c1", "r", key="x", result="1", inv=2, ret=3),
        op(2, "c1", "r", key="x", result=None, inv=4, ret=5),
    ], "register"))
    assert not result.ok


def test_failed_write_definitely_did_not_apply():
    # fail ops are dropped: a read observing one is a lost-update-style
    # contradiction, while a read observing nothing is fine.
    assert check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2, status="fail"),
        op(1, "c1", "r", key="x", result=None, inv=3, ret=4),
    ], "register")).ok
    assert not check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2, status="fail"),
        op(1, "c1", "r", key="x", result="1", inv=3, ret=4),
    ], "register")).ok


def test_per_key_compositionality_names_the_failing_key():
    result = check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result="1", inv=3, ret=4),
        op(2, "c0", "w", key="y", args="2", inv=5, ret=6),
        op(3, "c1", "r", key="y", result=None, inv=7, ret=8),
    ], "register"))
    assert not result.ok
    assert result.key == "y"
    assert all(o.key == "y" for o in result.violation)


# ---------------------------------------------------------------------------
# Wing–Gong: list-append
# ---------------------------------------------------------------------------

def test_list_append_accepts_the_real_order():
    assert check_history(hist([
        op(0, "c0", "append", key="log", args="a", inv=1, ret=2),
        op(1, "c1", "append", key="log", args="b", inv=3, ret=4),
        op(2, "c2", "r", key="log", result=["a", "b"], inv=5, ret=6),
    ], "list-append")).ok


def test_list_append_rejects_a_lost_prefix():
    result = check_history(hist([
        op(0, "c0", "append", key="log", args="a", inv=1, ret=2),
        op(1, "c1", "append", key="log", args="b", inv=3, ret=4),
        op(2, "c2", "r", key="log", result=["b"], inv=5, ret=6),
    ], "list-append"))
    assert not result.ok
    assert "no linearization" in result.reason


def test_concurrent_appends_commute():
    for order in (["a", "b"], ["b", "a"]):
        assert check_history(hist([
            op(0, "c0", "append", key="log", args="a", inv=1, ret=4),
            op(1, "c1", "append", key="log", args="b", inv=2, ret=3),
            op(2, "c2", "r", key="log", result=order, inv=5, ret=6),
        ], "list-append")).ok


# ---------------------------------------------------------------------------
# Strict serializability: bank
# ---------------------------------------------------------------------------

def txn(index, process, reads, writes, status="ok", inv=0, ret=None):
    return op(index, process, "xfer", key="",
              result={"reads": reads, "writes": writes},
              status=status, inv=inv, ret=ret)


INITIAL = {"a": "100@init", "b": "100@init:b"}


def test_serial_transaction_chain_is_accepted():
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "50@t0"}, inv=1, ret=2),
        txn(1, "c1", {"a": "50@t0"}, {"a": "75@t1"}, inv=3, ret=4),
    ], "bank", initial=INITIAL))
    assert result.ok
    assert result.checked == 2


def test_lost_update_two_transactions_replace_one_version():
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "50@t0"}, inv=1, ret=4),
        txn(1, "c1", {"a": "100@init"}, {"a": "90@t1"}, inv=2, ret=3),
    ], "bank", initial=INITIAL))
    assert not result.ok
    assert "lost update" in result.reason
    assert result.key == "a"
    assert len(result.violation) == 2


def test_duplicate_version_cell_is_replica_divergence():
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "50@t"}, inv=1, ret=2),
        txn(1, "c1", {"b": "100@init:b"}, {"a": "50@t"}, inv=3, ret=4),
    ], "bank", initial=INITIAL))
    assert not result.ok
    assert "replica divergence" in result.reason


def test_read_of_a_version_nobody_wrote():
    result = check_history(hist([
        txn(0, "c0", {"a": "42@ghost"}, {}, inv=1, ret=2),
    ], "bank", initial=INITIAL))
    assert not result.ok
    assert "no transaction wrote" in result.reason


def test_read_of_an_aborted_transactions_write():
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "50@t0"}, status="fail",
            inv=1, ret=2),
        txn(1, "c1", {"a": "50@t0"}, {}, inv=3, ret=4),
    ], "bank", initial=INITIAL))
    assert not result.ok
    assert "aborted read" in result.reason


def test_stale_read_after_commit_forms_a_realtime_cycle():
    # t0 commits a replacement of a@init, then t1 starts and still reads
    # a@init: rw edge t1 -> t0 plus the real-time edge t0 -> t1.
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "90@t0"}, inv=1, ret=2),
        txn(1, "c1", {"a": "100@init"}, {}, inv=3, ret=4),
    ], "bank", initial=INITIAL))
    assert not result.ok
    assert "cycle" in result.reason
    assert {o.index for o in result.violation} == {0, 1}


def test_info_transactions_are_not_treated_as_committed():
    # An unknown-outcome transaction's writes exist in the version chain
    # only if a later committed read proves them; on their own they are
    # ignored rather than flagged.
    result = check_history(hist([
        txn(0, "c0", {"a": "100@init"}, {"a": "50@t0"}, status="info",
            inv=1),
        txn(1, "c1", {"a": "100@init"}, {"a": "90@t1"}, inv=2, ret=3),
    ], "bank", initial=INITIAL))
    assert result.ok
    assert result.checked == 1


# ---------------------------------------------------------------------------
# Total delivery order
# ---------------------------------------------------------------------------

def test_agreeing_delivery_orders_pass():
    assert check_history(hist([
        op(0, "p0", "deliver", args="m1", inv=1, ret=1),
        op(1, "p0", "deliver", args="m2", inv=2, ret=2),
        op(2, "p1", "deliver", args="m1", inv=3, ret=3),
        op(3, "p1", "deliver", args="m2", inv=4, ret=4),
    ], "total-order")).ok


def test_disagreeing_delivery_orders_form_a_cycle():
    result = check_history(hist([
        op(0, "p0", "deliver", args="m1", inv=1, ret=1),
        op(1, "p0", "deliver", args="m2", inv=2, ret=2),
        op(2, "p1", "deliver", args="m2", inv=3, ret=3),
        op(3, "p1", "deliver", args="m1", inv=4, ret=4),
    ], "total-order"))
    assert not result.ok
    assert "delivery orders disagree" in result.reason
    assert result.violation


# ---------------------------------------------------------------------------
# Dispatch and the oracle adapter
# ---------------------------------------------------------------------------

def test_unknown_semantics_raises():
    with pytest.raises(ValueError):
        check_history(hist([], "register"), semantics="two-phase-locking")


def test_explicit_semantics_override_the_recorded_one():
    history = hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
    ], "bank")
    assert check_history(history, semantics="register").ok


def test_result_to_dict_is_json_shaped():
    result = check_history(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result=None, inv=3, ret=4),
    ], "register"))
    payload = result.to_dict()
    assert payload["ok"] is False
    assert payload["key"] == "x"
    assert all(isinstance(o, dict) for o in payload["violation"])


class _FakeRecorder:
    def __init__(self, history):
        self._history = history
        self.semantics = history.semantics
        self.finalized = False

    def finalize(self):
        self.finalized = True

    def history(self):
        return self._history

    def events_of(self, operations):
        return ()


def test_oracle_reports_violations_through_the_monitor_protocol():
    recorder = _FakeRecorder(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result=None, inv=3, ret=4),
    ], "register"))
    oracle = HistoryOracle(recorder)
    assert oracle.invariant == "linearizable-register"
    result = oracle.check(t=99.0)
    assert recorder.finalized
    assert not result.ok
    (violation,) = oracle.violations
    assert violation.invariant == "linearizable-register"
    assert violation.subject == "register:x"


def test_oracle_stays_quiet_on_clean_histories():
    recorder = _FakeRecorder(hist([
        op(0, "c0", "w", key="x", args="1", inv=1, ret=2),
        op(1, "c1", "r", key="x", result="1", inv=3, ret=4),
    ], "register"))
    oracle = HistoryOracle(recorder)
    assert oracle.check().ok
    assert oracle.violations == []
