"""The benchmark's own measurement rules, pinned without a server."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.client import ApiError

from perfbench.loadgen import (
    Connection,
    Runner,
    SessionTrace,
    Tally,
    canonical,
    digest,
    fail_inconsistent,
    replay_check,
)
from perfbench.measure import (
    blocked_percentile,
    chain_latencies,
    classify,
    percentile,
    poisson_arrivals,
    reported_percentile,
    send_lag,
    supports_percentile,
)
from perfbench.streams import SESSION_SHOWS, Brushing, Schema
from perfbench.tracing import Breakdown, nest, self_times


# -- the percentile rule ---------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0


def test_p99_needs_ten_samples_beyond_it():
    assert supports_percentile(1000, 99)
    assert not supports_percentile(999, 99)
    assert supports_percentile(20, 50)
    assert not supports_percentile(19, 50)
    with pytest.raises(ValueError, match="1000 samples"):
        reported_percentile([1.0] * 999, 99)
    assert reported_percentile(list(range(1000)), 99) == pytest.approx(989.01)


def test_blocked_p99_is_the_median_of_per_block_tails():
    calm = [1.0] * 980 + [2.0] * 20
    burst = [1.0] * 900 + [50.0] * 100
    # Three blocks; the burst moves one block's p99, not the median.
    assert blocked_percentile(calm + burst + calm + [1.0] * 500, 99) == 2.0
    assert blocked_percentile(calm, 99) == 2.0
    with pytest.raises(ValueError, match="at least 1000"):
        blocked_percentile(calm[:999], 99)


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, 100, "api.service", "handle"),
        (10, 50, "service.manager", "show"),
        (30, 70, "service.manager", "show"),  # overlaps its sibling
        (35, 45, "exploration.engine", "mask"),
    ]
    parent = nest(spans)
    assert parent == [-1, 0, 0, 2]
    # The parent loses 10..70 once, not 40 + 40; a child loses its child.
    assert self_times(spans, parent) == [40, 40, 30, 10]


def test_breakdown_groups_self_time_by_request():
    spans = [
        (0, 100, "loadgen", "request"),
        (5, 95, "api.http", "client"),
        (20, 80, "api.service", "handle"),
        (30, 40, "api.protocol", "decode"),
        (200, 260, "loadgen", "request"),
        (205, 255, "api.http", "client"),
    ]
    breakdown = Breakdown(spans)
    assert sorted(breakdown.per_request("api.http")) == [30, 50]
    assert breakdown.per_request("api.service") == [50]
    assert breakdown.per_request("loadgen") == [10, 10]
    assert breakdown.layer_calls("api.protocol", "decode") == [10]
    assert breakdown.share("api.http") == pytest.approx(80 / 160)


# -- open-loop due times -----------------------------------------------------------


def test_chain_is_timed_from_the_arrival_then_from_each_answer():
    # Due at 1.0 but sent late (the connection was busy): the stall counts.
    assert chain_latencies(1.0, [1.7, 1.9, 2.4]) == pytest.approx([0.7, 0.2, 0.5])


def test_send_lag_excludes_queueing_behind_the_previous_request():
    assert send_lag(due=1.0, free_at=1.5, sent=1.5002) == pytest.approx(0.0002)
    assert send_lag(due=2.0, free_at=1.0, sent=2.001) == pytest.approx(0.001)


def test_poisson_arrivals_are_seeded_and_keep_the_offered_rate():
    first = poisson_arrivals(np.random.default_rng([7, 11]), 50.0, 3.0, 10.0)
    again = poisson_arrivals(np.random.default_rng([7, 11]), 50.0, 3.0, 10.0)
    assert first == again
    assert len(first) == 500
    assert first == sorted(first)
    assert 3.0 <= first[0] and first[-1] < 13.0


# -- failure classification --------------------------------------------------------


def _error(code, **details):
    return {"ok": False, "error": {"code": code, "message": "", "details": details}}


def test_single_command_outcomes():
    assert classify({"ok": True, "result": {}}, 1) == (1, 0, False)
    assert classify(_error("WEALTH_EXHAUSTED"), 1) == (1, 0, True)
    assert classify(_error("INTERNAL"), 1) == (0, 1, False)
    assert classify(None, 3) == (0, 3, False)


def test_pipeline_slots_after_an_expected_exhaustion_are_correct():
    slots = [{"ok": True, "result": {}}, _error("WEALTH_EXHAUSTED"),
             _error("NOT_EXECUTED", aborted_by=1)]
    assert classify({"ok": True, "result": {"slots": slots}}, 3) == (3, 0, True)
    slots[1] = _error("INTERNAL")
    assert classify({"ok": True, "result": {"slots": slots}}, 3) == (1, 2, False)


def test_a_replay_mismatch_fails_every_command_of_the_session():
    log = {"ok": True, "result": {"records": [{"seq": 0}]}}
    logged = canonical(log)
    good = SessionTrace("s1", checked=True, commands=2, log_digest=digest([{"seq": 0}]))
    good.exchanges = [({"cmd": "show"}, canonical({"ok": True, "result": {"n": 1}})),
                      ({"cmd": "decision_log"}, logged)]
    bad = SessionTrace("s2", checked=True, commands=2, log_digest=digest([{"seq": 0}]))
    bad.exchanges = [({"cmd": "show"}, canonical({"ok": True, "result": {"n": 2}})),
                     ({"cmd": "decision_log"}, logged)]
    answers = {"show": {"v": 2, "ok": True, "result": {"n": 1}},
               "decision_log": dict(log, v=2)}
    service = SimpleNamespace(handle_dict=lambda payload: answers[payload["cmd"]])
    runner = SimpleNamespace(sessions=[good, bad])
    assert replay_check(runner, service) == 2
    assert good.consistent and not bad.consistent
    assert fail_inconsistent(runner) == 2
    assert (good.failed, bad.failed) == (0, 2)


# -- session churn -------------------------------------------------------------------


def _brushing_runner(exhaust_at: int | None = None):
    """A brushing runner over a fake client whose show number *exhaust_at*
    answers ``WEALTH_EXHAUSTED``."""
    sent: list[str] = []

    def call(payload):
        sent.append(payload["cmd"])
        if payload["cmd"] == "show" and sent.count("show") == exhaust_at:
            raise ApiError("WEALTH_EXHAUSTED", "out of wealth")
        return {"records": []} if payload["cmd"] == "decision_log" else {}

    schema = Schema({"sex": ("Female", "Male")}, {"age": (20.0, 60.0)})
    runner = Runner(Brushing(7, schema))
    conn = Connection(SimpleNamespace(call=call, close=lambda: None), Tally())
    return runner, conn, runner.workload.analyst("x"), sent


def test_a_session_ends_after_the_user_study_length():
    runner, conn, analyst, sent = _brushing_runner()
    for _ in range(SESSION_SHOWS - 1):
        runner.turn(analyst, conn)
    assert analyst.session_id is not None and runner.sessions[0].ended == ""
    runner.turn(analyst, conn)
    assert analyst.session_id is None
    assert runner.sessions[0].ended == "length"
    assert sent.count("show") == SESSION_SHOWS
    assert sent[-2:] == ["decision_log", "close_session"]


def test_a_session_ends_when_its_wealth_runs_out():
    runner, conn, analyst, sent = _brushing_runner(exhaust_at=3)
    for _ in range(4):
        runner.turn(analyst, conn)
    assert [s.ended for s in runner.sessions] == ["exhausted", ""]
    assert sent.count("create_session") == 2
    assert (conn.tally.attempted, sum(s.failed for s in runner.sessions)) == (8, 0)
