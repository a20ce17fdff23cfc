"""Measurement rules shared by every workload: percentiles, open-loop
arrival schedules, due-time latency accounting and outcome classification.

Pure functions only, so ``perfbench/tests`` can pin each rule.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, NamedTuple, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 therefore needs >= 1000 samples).
SAMPLES_BEYOND = 10

#: The one error code a healthy run answers: a session out of alpha-wealth.
EXPECTED_CODE = "WEALTH_EXHAUSTED"


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports_percentile(n: int, q: float) -> bool:
    """Whether *n* samples put at least ``SAMPLES_BEYOND`` beyond the *q*-th."""
    return n * (100.0 - q) / 100.0 >= SAMPLES_BEYOND - 1e-9


def reported_percentile(values: Sequence[float], q: float) -> float:
    """``percentile`` under the reporting rule: too few samples raise."""
    if not supports_percentile(len(values), q):
        raise ValueError(
            f"p{q:g} needs {math.ceil(SAMPLES_BEYOND * 100 / (100 - q))} "
            f"samples, got {len(values)}"
        )
    return percentile(values, q)


def blocked_percentile(values: Sequence[float], q: float,
                       block: int = 1000) -> float:
    """Median over consecutive *block*-sample blocks of each block's
    *q*-th percentile; a trailing partial block joins the last full one.

    *values* are in time order, so one burst of slow requests moves one
    block's tail rather than the reported figure.  Every block satisfies
    the reporting rule on its own.
    """
    full = len(values) // block
    if full == 0:
        raise ValueError(f"blocked p{q:g} needs at least {block} samples")
    blocks = [values[i * block:(i + 1) * block] for i in range(full - 1)]
    blocks.append(values[(full - 1) * block:])
    return percentile([reported_percentile(b, q) for b in blocks], 50)


def median_or_zero(values: Sequence[float]) -> float:
    """Median of *values*, 0.0 for a layer that never fired."""
    return percentile(values, 50) if values else 0.0


def poisson_arrivals(rng, rate: float, start: float, duration: float) -> list[float]:
    """Seeded Poisson arrival times over ``[start, start + duration)``.

    The count is fixed at ``round(rate * duration)`` and the times are
    sorted uniforms — a Poisson process conditioned on its count — so the
    offered rate is exact on every seed and only the burst pattern varies.
    """
    count = round(rate * duration)
    return sorted(start + duration * float(u) for u in rng.random(count))


def chain_latencies(due: float, completions: Sequence[float]) -> list[float]:
    """Latencies of a dependent request chain started by one arrival.

    The first request is due at the arrival time *due*, whenever it was
    actually sent (a stall before sending counts against it); each later
    request depends on the previous answer, so it is due at that answer.
    """
    latencies = []
    for done in completions:
        latencies.append(done - due)
        due = done
    return latencies


def send_lag(due: float, free_at: float, sent: float) -> float:
    """How late the generator itself sent a request that was due at *due*.

    A request cannot leave before its connection is free (*free_at*, the
    previous answer); waiting for that is queueing, which the latency
    already counts.  The lag is only the time past ``max(due, free_at)``.
    """
    return sent - max(due, free_at)


class Outcome(NamedTuple):
    """What one request's commands came to."""

    correct: int
    failed: int
    exhausted: bool


def _classify_slots(slots: Sequence[Mapping[str, Any]]) -> Outcome:
    correct = failed = 0
    exhausted_at: set[int] = set()
    for index, slot in enumerate(slots):
        if slot.get("ok"):
            correct += 1
            continue
        error = slot.get("error") or {}
        code = error.get("code")
        aborted_by = (error.get("details") or {}).get("aborted_by")
        if code == EXPECTED_CODE:
            exhausted_at.add(index)
            correct += 1
        elif code == "NOT_EXECUTED" and aborted_by in exhausted_at:
            correct += 1
        else:
            failed += 1
    return Outcome(correct, failed, bool(exhausted_at))


def classify(envelope: Mapping[str, Any] | None, commands: int) -> Outcome:
    """Classify one answer carrying *commands* commands.

    *envelope* is ``None`` for a transport error (every command fails),
    otherwise ``{"ok": True, "result": ...}`` or ``{"ok": False, "error":
    {...}}``.  A pipeline result is classified slot by slot: an expected
    ``WEALTH_EXHAUSTED`` and the ``NOT_EXECUTED`` slots it aborted are
    correct; ``INTERNAL`` and every other error code are failures.
    """
    if envelope is None:
        return Outcome(0, commands, False)
    if envelope.get("ok"):
        result = envelope.get("result") or {}
        if "slots" in result:
            return _classify_slots(result["slots"])
        return Outcome(commands, 0, False)
    code = (envelope.get("error") or {}).get("code")
    if code == EXPECTED_CODE:
        return Outcome(commands, 0, True)
    return Outcome(0, commands, False)

