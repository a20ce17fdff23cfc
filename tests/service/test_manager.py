"""SessionManager: registry, isolation, dispatch through the wire
service, decision logs."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.protocol import predicate_to_dict
from repro.api.service import ExplorationService
from repro.errors import InvalidParameterError, SessionError
from repro.exploration.engine import ThreadSafeLRUCache
from repro.exploration.predicate import Eq
from repro.exploration.session import ExplorationSession
from repro.service import SessionManager
from repro.workloads.census import make_census


@pytest.fixture()
def manager(census):
    m = SessionManager()
    m.register_dataset(census, name="census")
    return m


def _panels(census, attribute="sex", filter_attr="occupation"):
    """One (attribute, filter) panel per category of *filter_attr*."""
    return [(attribute, Eq(filter_attr, cat))
            for cat in census.categories(filter_attr)]


def _show_all(manager, session_id, panels):
    for attribute, where in panels:
        manager.show(session_id, attribute, where=where)


def _show_command(session_id, attribute, where=None):
    command = {"cmd": "show", "session_id": session_id,
               "attribute": attribute}
    if where is not None:
        command["where"] = predicate_to_dict(where)
    return command


class TestRegistry:
    def test_register_upgrades_caches_to_thread_safe(self, census):
        m = SessionManager()
        m.register_dataset(census, name="census")
        assert isinstance(census._mask_cache, ThreadSafeLRUCache)
        assert isinstance(census._hist_cache, ThreadSafeLRUCache)

    def test_register_preserves_warmed_entries(self):
        ds = make_census(500, seed=3)
        pred = Eq("sex", ds.categories("sex")[0])
        pred.mask(ds)  # warm one mask
        warmed = len(ds._mask_cache)
        SessionManager().register_dataset(ds, name="warm")
        assert len(ds._mask_cache) == warmed
        assert ds._mask_cache.get(pred) is not None

    def test_register_idempotent_same_object(self, census):
        m = SessionManager()
        assert m.register_dataset(census, name="x") == "x"
        assert m.register_dataset(census, name="x") == "x"
        assert m.dataset_names() == ("x",)

    def test_register_conflicting_object_rejected(self, census):
        m = SessionManager()
        m.register_dataset(census, name="x")
        with pytest.raises(InvalidParameterError):
            m.register_dataset(make_census(500, seed=1), name="x")

    def test_unknown_dataset_and_session_raise(self, manager):
        with pytest.raises(SessionError):
            manager.dataset("nope")
        with pytest.raises(SessionError):
            manager.create_session("nope")
        with pytest.raises(SessionError):
            manager.show("missing", "sex")

    def test_create_session_autoregisters_dataset_object(self, census):
        m = SessionManager()
        sid = m.create_session(census)
        assert census.name in m.dataset_names()
        assert isinstance(m.session(sid), ExplorationSession)

    def test_autoregistration_disambiguates_name_collisions(self):
        # every make_census shares the display name "synthetic-census";
        # a multi-tenant manager must keep both objects apart
        m = SessionManager()
        first = make_census(300, seed=0)
        second = make_census(300, seed=1)
        a = m.create_session(first)
        b = m.create_session(second)
        assert len(m.dataset_names()) == 2
        assert m.session(a).dataset is first
        assert m.session(b).dataset is second

    def test_close_session(self, manager):
        sid = manager.create_session("census")
        manager.close_session(sid)
        assert sid not in manager.session_ids()
        with pytest.raises(SessionError):
            manager.close_session(sid)


class TestIsolation:
    def test_sessions_have_independent_wealth(self, manager, census):
        a = manager.create_session("census")
        b = manager.create_session("census")
        initial = manager.wealth(b)
        _show_all(manager, a, _panels(census))
        # a spent wealth; b never tested, so its ledger is untouched
        assert manager.wealth(a) != initial
        assert manager.wealth(b) == initial
        assert manager.decision_log(b) == ()

    def test_sessions_have_independent_procedure_instances(self, manager):
        a = manager.create_session("census")
        b = manager.create_session("census")
        assert manager.session(a).procedure is not manager.session(b).procedure

    def test_dispatch_never_overturns_earlier_decisions(self, manager, census):
        """Interleaved shows across sessions keep per-session logs
        append-only: earlier records are byte-identical after more traffic."""
        a = manager.create_session("census")
        b = manager.create_session("census")
        _show_all(manager, a, _panels(census)[:3])
        _show_all(manager, b, _panels(census)[:3])
        snapshot_a = manager.decision_log(a)
        snapshot_b = manager.decision_log(b)
        _show_all(manager, a, _panels(census, attribute="education")[3:])
        _show_all(manager, b, _panels(census, attribute="race")[3:])
        assert manager.decision_log(a)[: len(snapshot_a)] == snapshot_a
        assert manager.decision_log(b)[: len(snapshot_b)] == snapshot_b


class TestDispatch:
    """Commands dispatched to the manager through the wire service."""

    def test_responses_in_batch_order(self, manager, census):
        service = ExplorationService(manager, max_sessions=None)
        a = manager.create_session("census")
        b = manager.create_session("census")
        commands = []
        for panel in _panels(census):
            commands += [_show_command(a, *panel), _show_command(b, *panel)]
        envelope = service.handle_dict({"v": 2, "cmd": "pipeline",
                                        "commands": commands})
        slots = envelope["result"]["slots"]
        assert len(slots) == len(commands)
        assert all(slot["ok"] for slot in slots)
        # each session's hypothesis ids count up in its own slots, so
        # slot i answers command i
        ids = [slot["result"]["hypothesis"]["id"] for slot in slots]
        assert ids[0::2] == ids[1::2] == list(range(1, len(ids) // 2 + 1))

    def test_same_session_requests_execute_in_order(self, manager, census):
        sid = manager.create_session("census")
        _show_all(manager, sid, _panels(census))
        log = manager.decision_log(sid)
        assert [r.seq for r in log] == list(range(len(log)))
        # hypothesis ids grow with submission order within the session
        ids = [r.hypothesis_id for r in log]
        assert ids == sorted(ids)

    def test_serial_and_parallel_dispatch_agree(self):
        """One thread per session sending through the service (the HTTP
        server's model) logs exactly what serial sends do."""
        outcomes = []
        for parallel in (False, True):
            ds = make_census(2_000, seed=0)
            service = ExplorationService(max_sessions=None)
            service.register_dataset(ds, name="census")
            sids = [service.manager.create_session("census")
                    for _ in range(4)]

            def drive(sid):
                for panel in _panels(ds):
                    envelope = service.handle_dict(
                        {"v": 2, **_show_command(sid, *panel)}
                    )
                    assert envelope["ok"], envelope

            if parallel:
                with ThreadPoolExecutor(max_workers=len(sids)) as pool:
                    for future in [pool.submit(drive, sid) for sid in sids]:
                        future.result(timeout=60)
            else:
                for sid in sids:
                    drive(sid)
            outcomes.append(
                [service.manager.decision_log_bytes(sid) for sid in sids]
            )
        assert outcomes[0] == outcomes[1]

    def test_bad_request_yields_error_response_not_abort(self, manager):
        service = ExplorationService(manager, max_sessions=None)
        sid = manager.create_session("census")
        envelope = service.handle_dict({
            "v": 2, "cmd": "pipeline", "failure_policy": "continue",
            "commands": [
                _show_command(sid, "sex"),
                _show_command(sid, "no_such_column"),
                _show_command("ghost-session", "sex"),
                _show_command(sid, "education"),
            ],
        })
        slots = envelope["result"]["slots"]
        assert [slot["ok"] for slot in slots] == [True, False, False, True]
        assert slots[1]["error"]["code"] == "SCHEMA"
        assert slots[2]["error"]["code"] == "SESSION"


class TestSharedCache:
    def test_results_shared_across_sessions(self):
        m = SessionManager()
        ds = make_census(2_000, seed=0)
        m.register_dataset(ds, name="census")
        a = m.create_session("census")
        b = m.create_session("census")
        cat = ds.categories("occupation")[0]
        m.show(a, "sex", where=Eq("occupation", cat))
        before = m.stats()
        m.show(b, "sex", where=Eq("occupation", cat))
        after = m.stats()
        # session b's identical panel must be served from the shared
        # caches: some hits accrue (the histogram cache short-circuits
        # the mask probe) and no new mask computation happens
        assert (after.mask_cache_hits + after.hist_cache_hits) > (
            before.mask_cache_hits + before.hist_cache_hits
        )
        assert after.mask_cache_misses == before.mask_cache_misses
        assert after.shared_cache_hit_rate > 0

    def test_thread_safe_cache_under_contention(self):
        cache = ThreadSafeLRUCache(8)
        errors = []

        def hammer(t):
            try:
                for i in range(2_000):
                    cache.put((t, i % 16), i)
                    cache.get((t, (i + 1) % 16))
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8


class TestLogsAndStats:
    def test_decision_log_bytes_canonical_json(self, manager, census):
        sid = manager.create_session("census")
        _show_all(manager, sid, _panels(census))
        payload = json.loads(manager.decision_log_bytes(sid))
        assert len(payload) == len(manager.decision_log(sid))
        for entry in payload:
            assert set(entry) == {
                "seq", "hypothesis_id", "kind", "p_value", "level",
                "rejected", "wealth_after", "event",
            }
            assert entry["event"] == "decision"
            float(entry["p_value"])  # repr round-trips

    def test_session_and_service_stats(self, manager, census):
        sid = manager.create_session("census")
        _show_all(manager, sid, _panels(census))
        s = manager.session_stats(sid)
        assert s.shows == len(census.categories("occupation"))
        assert s.decisions == len(manager.decision_log(sid))
        assert s.total_latency_s > 0
        svc = manager.stats()
        assert svc.sessions >= 1 and svc.datasets == 1
        assert svc.shows >= s.shows
        assert 0.0 <= svc.mask_cache_hit_rate <= 1.0


class TestRevisionVerbs:
    """star/unstar/override/delete are lock-mediated and land in the log."""

    def _rule3_session(self, manager):
        """A session with a numeric rule-3 comparison (hyp 3) over `age`."""
        sid = manager.create_session("census")
        manager.show(sid, "age", where=Eq("sex", "Female"))
        manager.show(sid, "age", where=~Eq("sex", "Female"))
        return sid

    def test_star_and_unstar_are_logged(self, manager):
        sid = self._rule3_session(manager)
        hyp = manager.star(sid, 1)
        assert hyp.starred
        assert manager.session(sid).hypothesis(1).starred
        hyp = manager.unstar(sid, 1)
        assert not hyp.starred
        events = [r.event for r in manager.decision_log(sid)]
        assert events[-2:] == ["star", "unstar"]
        assert all(r.seq == i for i, r in enumerate(manager.decision_log(sid)))

    def test_override_with_means_replays_and_logs(self, manager):
        sid = self._rule3_session(manager)
        report = manager.override_with_means(sid, 2)
        assert report.revised_id == 2
        revised = manager.session(sid).hypothesis(2)
        assert revised.kind == "override"
        log = manager.decision_log(sid)
        override_entries = [r for r in log if r.event == "override"]
        assert [r.hypothesis_id for r in override_entries] == [2]
        # every *later* flip the replay caused is logged after the revision
        # (the revised hypothesis itself is the "override" entry, not a replay)
        replay_entries = [r for r in log if r.event == "replay"]
        later_flips = [c for c in report.changed if c[0] != report.revised_id]
        assert len(replay_entries) == len(later_flips)
        assert all(r.hypothesis_id != report.revised_id for r in replay_entries)

    def test_delete_hypothesis_removes_from_stream_and_logs(self, manager):
        sid = self._rule3_session(manager)
        manager.show(sid, "education", where=Eq("sex", "Female"))
        report = manager.delete_hypothesis(sid, 3)
        assert report.revised_id == 3
        session = manager.session(sid)
        assert session.hypothesis(3).status.value == "deleted"
        assert 3 not in [h.hypothesis_id for h in session.active_hypotheses()]
        assert [r.hypothesis_id for r in manager.decision_log(sid)
                if r.event == "delete"] == [3]

    def test_revision_verbs_require_known_session(self, manager):
        with pytest.raises(SessionError):
            manager.star("nope", 1)
        with pytest.raises(SessionError):
            manager.delete_hypothesis("nope", 1)

    def test_gauge_summary_matches_full_gauge_header(self, manager):
        sid = self._rule3_session(manager)
        summary = manager.gauge_summary(sid)
        gauge = manager.gauge(sid)
        assert summary["wealth"] == gauge.wealth
        assert summary["initial_wealth"] == gauge.initial_wealth
        assert summary["num_tested"] == gauge.num_tested
        assert summary["num_discoveries"] == gauge.num_discoveries
        assert summary["exhausted"] == gauge.exhausted
        assert summary["procedure"] == gauge.procedure_name

    def test_export_is_canonical_session_to_dict(self, manager):
        from repro.exploration.export import session_to_dict

        sid = self._rule3_session(manager)
        assert manager.export(sid) == session_to_dict(manager.session(sid))
