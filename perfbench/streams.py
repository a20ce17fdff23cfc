"""Seeded command streams for the three workloads.

Everything here is wire-level: panels are ``(attribute, predicate JSON)``
pairs and every request is the ``dict`` that goes over the socket, so the
same stream can be sent to a server and replayed through
``ExplorationService.handle_dict`` for the correctness check.

Each workload is built so one layer dominates it (see ``BENCHMARK.json``):

* ``dashboard`` — a 64-panel pool that fits the engine's caches; each
  gesture is show -> star -> show as three single-command requests;
* ``brushing`` — every show filters on a fresh numeric ``range`` joined to
  a categorical ``eq``, so range masks never repeat;
* ``durable-cluster`` — the dashboard pool, but each gesture is one
  pipeline envelope with ``idem`` tokens, and every session ends with
  ``decision_log`` -> ``recover(fresh)`` -> ``close_session``.

Every session is one analyst's exploration: it ends when it answers
``WEALTH_EXHAUSTED`` or once it has sent ``SESSION_SHOWS`` shows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.workloads.census import CENSUS_CATEGORICAL, CENSUS_NUMERIC, make_census

#: Rows of the census each workload's server registers.
ROWS = {"dashboard": 20_000, "brushing": 1_000_000, "durable-cluster": 20_000}

#: Panels in the shared dashboard pool; it must fit the 512-entry mask cache.
POOL_SIZE = 64

#: Shows after which an analyst closes the session and opens a new one: the
#: 115 hypotheses of the paper's user study (``make_user_study_workflow``'s
#: default ``n_steps``), one session of one analyst.
SESSION_SHOWS = 115

DATASET = "census"


def eq(column: str, value: Any) -> dict:
    return {"op": "eq", "column": column, "value": value}


def brush(column: str, lo: float, hi: float) -> dict:
    return {"op": "range", "column": column, "lo": lo, "hi": hi}


def conj(*operands: dict) -> dict:
    return {"op": "and", "operands": list(operands)}


def negate(operand: dict) -> dict:
    return {"op": "not", "operand": operand}


@dataclass(frozen=True)
class Schema:
    """Column values common enough to filter on (>= 10% of rows)."""

    common: dict[str, tuple]
    numeric_span: dict[str, tuple[float, float]]


def census_schema(census_seed: int) -> Schema:
    """The filterable values of the census the servers generate.

    Prevalence does not depend on the row count, so a 20k-row sample of
    the same generator stands in for every workload's dataset.
    """
    data = make_census(20_000, seed=census_seed)
    common = {}
    for column in CENSUS_CATEGORICAL:
        values, counts = np.unique(data.values(column), return_counts=True)
        common[column] = tuple(
            str(v) for v, c in zip(values, counts) if c >= 0.10 * data.n_rows
        )
    spans = {}
    for column in CENSUS_NUMERIC:
        values = data.values(column)
        spans[column] = (float(np.percentile(values, 5)),
                         float(np.percentile(values, 95)))
    return Schema(common, spans)


def _other_attribute(rng, exclude: set[str]) -> str:
    choices = [c for c in CENSUS_CATEGORICAL + CENSUS_NUMERIC if c not in exclude]
    return choices[int(rng.integers(len(choices)))]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _brush_bounds(rng, span: tuple[float, float]) -> tuple[float, float]:
    lo_min, hi_max = span
    width = (hi_max - lo_min) * float(rng.uniform(0.15, 0.45))
    lo = float(rng.uniform(lo_min, hi_max - width))
    return lo, lo + width


def panel_pool(rng, schema: Schema) -> list[tuple[str, dict]]:
    """The dashboard's shared pool: a fixed mix of panel shapes, seeded values.

    40 single ``eq`` filters, 8 fixed ``range`` filters, 8 ``and`` of two
    ``eq`` and 8 ``not`` panels, each the complement of one of the ``eq``
    panels on the same attribute (so rule-3 comparisons also occur).
    """
    columns = list(schema.common)
    pool: list[tuple[str, dict]] = []
    for _ in range(40):
        column = _pick(rng, columns)
        pool.append((_other_attribute(rng, {column}),
                     eq(column, _pick(rng, schema.common[column]))))
    for _ in range(8):
        column = _pick(rng, list(schema.numeric_span))
        lo, hi = _brush_bounds(rng, schema.numeric_span[column])
        pool.append((_other_attribute(rng, {column}),
                     brush(column, round(lo, 1), round(hi, 1))))
    for _ in range(8):
        first, second = rng.choice(len(columns), size=2, replace=False)
        a, b = columns[int(first)], columns[int(second)]
        pool.append((_other_attribute(rng, {a, b}),
                     conj(eq(a, _pick(rng, schema.common[a])),
                          eq(b, _pick(rng, schema.common[b])))))
    for index in rng.choice(40, size=8, replace=False):
        attribute, where = pool[int(index)]
        pool.append((attribute, negate(where)))
    return pool


def show(sid: str, panel: tuple[str, dict]) -> dict:
    attribute, where = panel
    return {"v": 2, "cmd": "show", "session_id": sid,
            "attribute": attribute, "where": where}


def hypothesis_id(result: dict | None) -> int | None:
    """The hypothesis a show answered with (``None`` for descriptive panels)."""
    hypothesis = (result or {}).get("hypothesis")
    return None if hypothesis is None else int(hypothesis["id"])


#: One step of a gesture: the previous step's result -> the next request,
#: or ``None`` when the gesture cannot continue.
Step = Callable[[dict | None], dict | None]


@dataclass
class Analyst:
    """One simulated analyst: a seeded stream of sessions and gestures."""

    name: str
    rng: Any
    serial: int = 0
    session_id: str | None = None
    shows: int = 0
    #: Shows the first session counts as already sent.
    head_start: int = 0
    idem_serial: int = 0

    def next_session_id(self) -> str:
        self.serial += 1
        return f"{self.name}-{self.serial}"

    def idem(self) -> str:
        self.idem_serial += 1
        return f"{self.name}-i{self.idem_serial}"


class Workload:
    """A workload's command shapes; subclasses fill in ``gesture``."""

    name = ""
    open_loop = False
    connections = 1
    #: Concurrent analysts per connection.
    analysts = 1
    durable = False
    #: Share of sessions replayed in-process for the correctness check.
    check_share = 1.0

    def __init__(self, seed: int, schema: Schema) -> None:
        self.seed = seed
        self.schema = schema

    def analyst(self, name: str) -> Analyst:
        stream = zlib.crc32(name.encode("utf-8"))
        return Analyst(name, np.random.default_rng([self.seed, stream]))

    def group(self, prefix: str) -> list[Analyst]:
        """One connection's analysts, who take turns.  Analyst *k* of *n*
        starts as if ``k/n`` of the way through its first session, so the
        group's sessions end evenly spread in time rather than in the same
        round."""
        group = []
        for k in range(self.analysts):
            analyst = self.analyst(f"{prefix}.{k}")
            analyst.head_start = SESSION_SHOWS * k // self.analysts
            group.append(analyst)
        return group

    def checks(self, sid: str) -> bool:
        """Whether session *sid* is replayed for the correctness check: a
        seeded draw per session id, whatever order sessions open in."""
        draw = zlib.crc32(f"{self.seed}/{sid}".encode("utf-8")) / 2**32
        return draw < self.check_share

    def create(self, analyst: Analyst, sid: str) -> dict:
        payload = {"v": 2, "cmd": "create_session", "dataset": DATASET,
                   "session_id": sid}
        if self.durable:
            payload["idem"] = analyst.idem()
        return payload

    def gesture(self, analyst: Analyst) -> list[Step]:
        raise NotImplementedError

    def closing(self, sid: str) -> list[dict]:
        """Requests that end a session, after its ``decision_log``."""
        close = {"v": 2, "cmd": "close_session", "session_id": sid}
        if not self.durable:
            return [close]
        return [{"v": 2, "cmd": "recover", "session_id": sid, "fresh": True},
                close]


class PooledWorkload(Workload):
    """A workload whose gestures show two distinct panels of the pool."""

    def __init__(self, seed: int, schema: Schema) -> None:
        super().__init__(seed, schema)
        self.pool = panel_pool(np.random.default_rng([seed, 1]), schema)

    def two_panels(self, analyst: Analyst) -> tuple[tuple, tuple]:
        first, second = analyst.rng.choice(POOL_SIZE, size=2, replace=False)
        return self.pool[int(first)], self.pool[int(second)]


class Dashboard(PooledWorkload):
    name = "dashboard"
    open_loop = True
    #: Offered load in gestures per second (about 370 commands/s): a third
    #: of the closed-loop capacity measured on a 2-vCPU machine, below the
    #: knee (170 gestures/s) where the connection queues stop draining.
    rate = 120.0
    connections = 2
    #: The most analysts for which each one finishes a full session within
    #: warm-up plus a 20-second window (a session takes about 15 s).
    analysts = 16

    def gesture(self, analyst: Analyst) -> list[Step]:
        sid = analyst.session_id
        first_panel, second_panel = self.two_panels(analyst)

        def star(result: dict | None) -> dict | None:
            hid = hypothesis_id(result)
            if hid is None:
                return None
            return {"v": 2, "cmd": "star", "session_id": sid,
                    "hypothesis_id": hid}

        return [lambda _: show(sid, first_panel), star,
                lambda _: show(sid, second_panel)]


class Brushing(Workload):
    name = "brushing"
    #: A 1M-row replay costs as much as serving; check a seeded quarter.
    check_share = 0.25

    def gesture(self, analyst: Analyst) -> list[Step]:
        rng = analyst.rng
        numeric = _pick(rng, list(self.schema.numeric_span))
        categorical = _pick(rng, list(self.schema.common))
        lo, hi = _brush_bounds(rng, self.schema.numeric_span[numeric])
        panel = (_other_attribute(rng, {numeric, categorical}),
                 conj(brush(numeric, lo, hi),
                      eq(categorical, _pick(rng, self.schema.common[categorical]))))
        sid = analyst.session_id
        return [lambda _: show(sid, panel)]


class DurableCluster(PooledWorkload):
    name = "durable-cluster"
    connections = 2
    #: As on the dashboard, so that each connection's requests spread over
    #: both workers: with one analyst per connection, whether the two open
    #: sessions shared a worker set the throughput of a whole run.
    analysts = 16
    durable = True

    def gesture(self, analyst: Analyst) -> list[Step]:
        sid = analyst.session_id
        first_panel, second_panel = self.two_panels(analyst)
        commands = [
            dict(show(sid, first_panel), idem=analyst.idem()),
            {"cmd": "star", "session_id": sid, "hypothesis_id": "$prev",
             "idem": analyst.idem()},
            dict(show(sid, second_panel), idem=analyst.idem()),
        ]
        for command in commands:
            command.pop("v", None)
        envelope = {"v": 2, "cmd": "pipeline", "commands": commands,
                    "failure_policy": "abort_on_error"}
        return [lambda _: envelope]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Dashboard, Brushing, DurableCluster)
}
