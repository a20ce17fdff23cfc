"""Gestures on the sweep's wire runners: ``"$prev"`` chaining, abort at
the first failure, and wealth exhaustion behave the same on the
per-command transport (``"$prev"`` resolved client-side) and the
pipeline transport (resolved server-side)."""

import functools
import json
import threading

import pytest

from repro.api.protocol import PREV, predicate_to_dict
from repro.api.service import ExplorationService
from repro.errors import SessionError
from repro.exploration.predicate import Eq
from repro.service.manager import SessionManager
from repro.service.sweep import (
    _wire_call,
    run_gestures_pipeline,
    run_gestures_service,
)

RUNNERS = {"service": run_gestures_service, "pipeline": run_gestures_pipeline}


@pytest.fixture()
def manager(census):
    m = SessionManager()
    m.register_dataset(census, name="census")
    return m


def _show(attribute, where=None, **kw):
    command = {"cmd": "show", "attribute": attribute, **kw}
    if where is not None:
        command["where"] = predicate_to_dict(where)
    return command


def _star(hypothesis_id=PREV):
    return {"cmd": "star", "hypothesis_id": hypothesis_id}


def _send(manager):
    return functools.partial(
        _wire_call, ExplorationService(manager, max_sessions=None)
    )


def _recording_send(manager, envelopes):
    send = _send(manager)

    def record(request):
        envelope = send(request)
        envelopes.append(envelope)
        return envelope

    return record


def _drive(census, gestures, **session_kwargs):
    """Run *gestures* on a fresh session per transport.

    Returns ``{transport: (manager, session id, measurements)}``.
    """
    out = {}
    for transport, runner in RUNNERS.items():
        manager = SessionManager()
        manager.register_dataset(census, name="census")
        sid = manager.create_session("census", **session_kwargs)
        out[transport] = (manager, sid, runner(_send(manager), sid, gestures))
    return out


class TestExecution:
    def test_show_star_show_resolves_prev(self, census):
        gesture = (_show("education", Eq("sex", "Female")), _star(),
                   _show("age", Eq("sex", "Female")))
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 0 and measured.ok_shows == 2
            log = manager.decision_log(sid)
            # the star landed in the decision log as an event, in order
            assert [r.event for r in log] == ["decision", "star", "decision"]
            assert log[1].hypothesis_id == log[0].hypothesis_id
            assert manager.session(sid).hypothesis(log[0].hypothesis_id).starred

    def test_prev_tracks_nearest_hypothesis(self, census):
        gesture = (_show("education", Eq("sex", "Female")),
                   _show("age", Eq("sex", "Female")), _star())
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 0
            log = manager.decision_log(sid)
            assert log[2].event == "star"
            assert log[2].hypothesis_id == log[1].hypothesis_id

    def test_concrete_hypothesis_id_still_accepted(self, census):
        gestures = [(_show("education", Eq("sex", "Female")),),
                    (_show("age", Eq("sex", "Female")), _star(1))]
        for manager, sid, measured in _drive(census, gestures).values():
            assert sum(m.errors for m in measured) == 0
            log = manager.decision_log(sid)
            assert log[2].event == "star"
            assert log[2].hypothesis_id == log[0].hypothesis_id == 1

    def test_descriptive_show_does_not_update_prev(self, census):
        gesture = (_show("education", Eq("sex", "Female")),
                   _show("age", Eq("sex", "Male"), descriptive=True),
                   _star())
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 0
            log = manager.decision_log(sid)
            assert [r.event for r in log] == ["decision", "star"]
            assert log[1].hypothesis_id == log[0].hypothesis_id

    def test_unstar_verb(self, census):
        gesture = (_show("education", Eq("sex", "Female")), _star(),
                   {"cmd": "unstar", "hypothesis_id": PREV})
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 0
            log = manager.decision_log(sid)
            assert [r.event for r in log] == ["decision", "star", "unstar"]
            assert not manager.session(sid).hypothesis(
                log[0].hypothesis_id).starred


class TestFailureSemantics:
    def test_prev_before_any_hypothesis_fails_and_aborts(self, census):
        gesture = (_star(), _show("education", Eq("sex", "Female")))
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 2 and measured.ok_shows == 0
            assert manager.decision_log(sid) == ()

    def test_null_hypothesis_id_rejected_like_the_wire(self, census):
        """The protocol rejects a null hypothesis_id on every transport
        (a pipeline rejects the whole envelope before running it), so no
        star is ever logged."""
        gesture = (_show("education", Eq("sex", "Female")),
                   {"cmd": "star", "hypothesis_id": None})
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors >= 1
            events = [r.event for r in manager.decision_log(sid)]
            assert "star" not in events

    def test_unknown_verb_fills_error_slot(self, census):
        gesture = ({"cmd": "teleport"}, _show("age", Eq("sex", "Female")))
        for manager, sid, (measured,) in _drive(census, [gesture]).values():
            assert measured.errors == 2 and measured.ok_shows == 0
            assert manager.decision_log(sid) == ()

    def test_unknown_session_raises(self, manager):
        """The manager raises for an unknown session; over the wire that
        is an error in every slot of the gesture, never a crash."""
        with pytest.raises(SessionError):
            manager.show("ghost", "age")
        envelopes = []
        send = _recording_send(manager, envelopes)
        gesture = (_show("age"), _star())
        for runner in RUNNERS.values():
            (measured,) = runner(send, "ghost", [gesture])
            assert measured.errors == 2 and measured.ok_shows == 0
        assert "SESSION" in json.dumps(envelopes)

    def test_exhausted_session_rejects_spending_shows(self, census):
        dead_ends = [("sex", "workclass", "Private"),
                     ("sex", "race", "GroupB"),
                     ("education", "native_region", "North"),
                     ("sex", "workclass", "Government")]
        for runner in RUNNERS.values():
            manager = SessionManager()
            manager.register_dataset(census, name="census")
            sid = manager.create_session("census", procedure="gamma-fixed",
                                         gamma=3.0)
            envelopes = []
            send = _recording_send(manager, envelopes)
            for target, attr, cat in dead_ends:
                runner(send, sid, [(_show(target, Eq(attr, cat)),)])
                if manager.session(sid).is_exhausted:
                    break
            assert manager.session(sid).is_exhausted
            before = manager.decision_log_bytes(sid)
            del envelopes[:]
            (measured,) = runner(send, sid, [
                (_show("sex", Eq("workclass", "Private")), _star()),
            ])
            assert measured.errors == 2 and measured.ok_shows == 0
            assert "WEALTH_EXHAUSTED" in json.dumps(envelopes)
            # a rejected show spends nothing and logs nothing
            assert manager.decision_log_bytes(sid) == before

    def test_reject_exhausted_false_matches_legacy_dispatch(self, manager):
        """Only the wire boundary applies the admission rule: in-process
        ``SessionManager.show`` keeps ``reject_exhausted=False`` and never
        rejects, even after the ledger runs dry."""
        sid = manager.create_session("census", procedure="gamma-fixed",
                                     gamma=3.0)
        for _ in range(6):
            manager.show(sid, "sex", where=Eq("workclass", "Private"))
        assert manager.session(sid).is_exhausted


class TestAtomicity:
    def test_gesture_is_one_critical_section(self, manager):
        """A concurrent show on the same session can never interleave
        mid-envelope: its log entry lands before or after the gesture's
        whole block of entries."""
        sid = manager.create_session("census")
        start = threading.Barrier(2)

        def intruder():
            start.wait()
            manager.show(sid, "age", where=Eq("sex", "Male"))

        thread = threading.Thread(target=intruder)
        thread.start()
        start.wait()
        gesture = (_show("education", Eq("sex", "Female")), _star(),
                   _show("age", Eq("sex", "Female")))
        envelopes = []
        (measured,) = run_gestures_pipeline(
            _recording_send(manager, envelopes), sid, [gesture]
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert measured.errors == 0
        slots = envelopes[0]["result"]["slots"]
        gesture_ids = {slot["result"]["hypothesis"]["id"] for slot in slots}
        events = [(r.event, r.hypothesis_id) for r in manager.decision_log(sid)]
        gesture_entries = [(e, h) for e, h in events if h in gesture_ids]
        assert len(gesture_entries) == 3 and len(events) == 4
        # the gesture's three log entries are contiguous
        first = events.index(gesture_entries[0])
        assert events[first:first + len(gesture_entries)] == gesture_entries
