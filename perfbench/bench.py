"""One benchmark run: launch, drive, trace and check (see ``DESIGN.md``)."""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import platform
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
from repro.api.client import Client
from repro.api.service import ExplorationService
from repro.workloads.census import make_census

from perfbench.loadgen import (
    BACKLOG_LIMIT_S,
    Connection,
    Runner,
    Tally,
    Window,
    closed_loop,
    commands_in,
    commands_of,
    fail_inconsistent,
    open_loop,
    replay_check,
)
from perfbench.measure import (
    blocked_percentile,
    median_or_zero,
    percentile,
    poisson_arrivals,
    reported_percentile,
)
from perfbench.servers import (
    InProcessServers,
    ServerProcess,
    cpu_seconds,
    filesystem_of,
    peak_rss_mb,
    serve_argv,
    server_env,
)
from perfbench.streams import ROWS, SESSION_SHOWS, WORKLOADS, census_schema
from perfbench.tracing import LAYERS, Breakdown, Tracer

#: Timed relaunches after the traffic of an untraced run; setup_s is their median.
SETUPS = 3
#: Untimed seconds before the window (caches fill, sessions open).
WARMUP_S = 2.0
#: Timed requests a window needs so that ten lie beyond its p99.
MIN_REQUESTS = 1000
#: Requests the traced run records (the per-layer p99 needs 1000).
TRACED_REQUESTS = 1000
#: Requests per traced block; an untraced block half as long follows each.
TRACE_BLOCK = 50
#: Load-generator CPU share above which it, not the server, is the limit.
LOADGEN_CPU_LIMIT = 0.9


class InvalidRun(Exception):
    """The measurement is not trustworthy; no number is reported."""


def _sum_stats(stats: dict) -> dict:
    """Service-wide counters, summed over a router's workers."""
    parts = list(stats["workers"].values()) if "workers" in stats else [stats]
    keys = ("mask_cache_hits", "mask_cache_misses", "hist_cache_hits",
            "hist_cache_misses", "pipelines", "pipeline_commands")
    return {key: sum(int(part.get(key) or 0) for part in parts) for key in keys}


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class Bench:
    """One run of one workload; ``run()`` returns the result and report."""

    def __init__(self, args: argparse.Namespace, root: Path, workdir: Path) -> None:
        self.args = args
        self.root = root
        self.workdir = workdir
        self.rows = ROWS[args.workload]
        self.workload = WORKLOADS[args.workload](args.seed,
                                                 census_schema(args.census_seed))
        self.env = server_env(root / "src")
        self.metrics: dict[str, tuple[float, str, int | None]] = {}
        self.report: list[str] = []
        self.runners: list = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def store_path(self, tag: str) -> Path | None:
        return self.workdir / f"store-{tag}" if self.workload.durable else None

    # -- driving --------------------------------------------------------------

    def _drive(self, port: int, tag: str):
        """Warm up, then drive the workload for the timed window."""
        workload, seconds = self.workload, self.args.seconds
        runner = Runner(workload)
        self.runners.append(runner)
        conns = [Connection(Client(port=port, auto_idem=False), Tally())
                 for _ in range(workload.connections)]
        analysts = [workload.group(f"{tag}{c}") for c in range(len(conns))]
        start = time.perf_counter() + 0.01
        window = Window(start + WARMUP_S, start + WARMUP_S + seconds,
                        start + WARMUP_S + seconds + max(seconds, 20.0))
        backlog_ok = [True] * len(conns)
        if workload.open_loop:
            rate = workload.rate / len(conns)

            def work(c: int) -> None:
                arrivals = poisson_arrivals(
                    np.random.default_rng([self.args.seed, 11, c]), rate,
                    start, WARMUP_S + seconds)
                backlog_ok[c] = open_loop(runner, conns[c], analysts[c],
                                          arrivals, window)
        else:
            def enough() -> bool:
                return sum(len(conn.tally.timed) for conn in conns) >= MIN_REQUESTS

            def work(c: int) -> None:
                closed_loop(runner, conns[c], analysts[c], window, enough)

        cpu0, wall0 = time.process_time(), time.perf_counter()
        threads = [threading.Thread(target=work, args=(c,), daemon=True)
                   for c in range(len(conns))]
        with _collector_paused():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        for conn in conns:
            conn.client.close()
        if not all(backlog_ok):
            raise InvalidRun("open-loop backlog grew: the last arrivals finished "
                             f"more than {BACKLOG_LIMIT_S:g}s after the window")
        if cpu_share > LOADGEN_CPU_LIMIT:
            raise InvalidRun(f"load generator saturated (CPU share {cpu_share:.2f})")
        return conns, window, cpu_share, runner, sum(analysts, [])

    def _window_metrics(self, conns, window) -> dict:
        timed = sorted((pair for conn in conns for pair in conn.tally.timed),
                       key=lambda pair: pair[0].sent)
        latencies = [lat * 1e3 for _, lat in timed]
        if len(latencies) < MIN_REQUESTS:
            raise InvalidRun(f"only {len(latencies)} timed requests; "
                             f"p99 needs {MIN_REQUESTS}")
        end = max(conn.tally.last_done for conn in conns)
        correct = sum(ex.correct for ex, _ in timed if ex.session.consistent)
        lags = [lag * 1e3 for conn in conns for lag in conn.tally.lags]
        recovers = [lat * 1e3 for ex, lat in timed
                    if ex.payload["cmd"] == "recover"]
        return {
            "requests": Counter(ex.payload["cmd"] for ex, _ in timed),
            "commands": Counter(command["cmd"] for ex, _ in timed
                                for command in commands_of(ex.payload)),
            "p50": reported_percentile(latencies, 50),
            "p99": blocked_percentile(latencies, 99),
            "p99_pooled": reported_percentile(latencies, 99),
            "n": len(latencies),
            "commands_per_s": correct / (end - window.start),
            "lag_p99": reported_percentile(lags, 99),
            "lags": len(lags),
            "recover_p50": reported_percentile(recovers, 50) if recovers else 0.0,
            "recovers": len(recovers),
        }

    def untraced(self, setups: int):
        """Drive one ``repro serve`` launch, then time *setups* relaunches.

        The relaunches use the store the traffic left behind, so on
        ``durable-cluster`` each one recovers the sessions still open; the
        last relaunch then closes them, which checks what it recovered.
        """
        store = self.store_path("untraced")
        argv = serve_argv(self.rows, self.args.census_seed, store)
        server = ServerProcess(argv, self.env, self.root).start()
        try:
            pids = server.pids()
            cpu0 = cpu_seconds(pids)
            conns, window, cpu_share, runner, analysts = self._drive(server.port, "a")
            cpu = cpu_seconds(pids) - cpu0
            if not server.all_alive():
                raise InvalidRun("a server process died: " + " | ".join(server.tail))
            rss = peak_rss_mb(pids)
            with Client(port=server.port) as client:
                stats = _sum_stats(client.stats())
            if store is None:
                _wind_down(runner, analysts, server.port)
        finally:
            server.stop()
        times = []
        for index in range(setups):
            server = ServerProcess(argv, self.env, self.root).start()
            try:
                times.append(server.setup_s)
                if store is not None and index == setups - 1:
                    _wind_down(runner, analysts, server.port)
            finally:
                server.stop()
        attempted = sum(conn.tally.attempted for conn in conns)
        return {
            "setup_times": times,
            "rss_mb": rss,
            "server_cpu_ms_per_command": cpu * 1e3 / attempted,
            "loadgen_cpu_share": cpu_share,
            "stats": stats,
            "conns": conns,
            "window": window,
            "runner": runner,
        }

    def traced(self) -> dict:
        """Host the servers in-process; alternate traced and untraced blocks."""
        workload = self.workload
        store = self.store_path("traced")
        servers = InProcessServers(self.rows, self.args.census_seed, store).start()
        tracer = Tracer()
        runner = Runner(workload)
        self.runners.append(runner)
        if store is not None:
            runner.size_probe = lambda: _tree_bytes(store)
        conn = Connection(Client(port=servers.port, auto_idem=False), Tally())
        analysts = workload.group("t")
        samples: dict[bool, list[float]] = {True: [], False: []}
        try:
            traced_commands = _alternate(runner, conn, analysts, tracer, samples)
            runner.wind_down(analysts, conn)
        finally:
            tracer.uninstall()
            conn.client.close()
            servers.stop()
        return {
            "breakdown": Breakdown(tracer.spans),
            "counts": tracer.counts,
            "samples": samples,
            "traced_commands": traced_commands,
            "runner": runner,
        }

    # -- correctness ------------------------------------------------------------

    def check(self) -> int:
        """Replay sampled sessions in-process; returns sessions compared."""
        service = ExplorationService(max_sessions=None)
        service.register_dataset(make_census(self.rows, seed=self.args.census_seed),
                                 name="census")
        compared = 0
        for runner in self.runners:
            compared += replay_check(runner, service)
            self.failed += fail_inconsistent(runner)
        return compared

    # -- the run -------------------------------------------------------------------

    def run(self):
        args, workload = self.args, self.workload
        untraced = self.untraced(1 if args.trace else SETUPS)
        traced = self.traced() if args.trace else None
        for runner in self.runners:
            for session in runner.sessions:
                self.attempted += session.commands
                self.failed += session.failed
        compared = self.check()
        # After the check: commands of a session that failed it are not
        # counted as answered correctly.
        window = self._window_metrics(untraced["conns"], untraced["window"])
        ended = _ended(untraced["runner"])
        closed = ended["exhausted"] + ended["length"]
        traffic = (f"open loop at {workload.rate:g} gestures/s"
                   if workload.open_loop else "closed loop")
        store = (f"jsonl, fsync batch, filesystem {filesystem_of(self.workdir)}"
                 if workload.durable else "none")
        self.report += [
            f"workload {workload.name}: seed {args.seed}, census seed "
            f"{args.census_seed}, {self.rows} rows, window {args.seconds:g}s",
            f"python {platform.python_version()}, nproc "
            f"{len(os.sched_getaffinity(0))}, {traffic}, "
            f"{workload.connections} connection(s)",
            f"store: {store}",
            f"request p99: {window['p99']:.4f} ms as the median of 1000-request "
            f"blocks, {window['p99_pooled']:.4f} ms over all {window['n']} samples",
            f"requests in the window: {_shares(window['requests'])}",
            f"commands in the window: {_shares(window['commands'])}",
            f"sessions that ended in traffic: {closed}, "
            f"{ended['exhausted']} on WEALTH_EXHAUSTED, "
            f"{ended['length']} after {SESSION_SHOWS} shows",
            f"correctness: {compared} session(s) replayed in-process, "
            f"{self.failed} of {self.attempted} command(s) failed",
        ]
        if not args.trace:
            setups = untraced["setup_times"]
            self.metric("setup_s", percentile(setups, 50), "s", len(setups))
            self.metric("request_p50_ms", window["p50"], "ms", window["n"])
            self.metric("commands_per_s", window["commands_per_s"], "1/s", window["n"])
            self.metric("server_rss_mb", untraced["rss_mb"], "MB")
        else:
            self._layer_metrics(untraced, window, traced)
        for name, (value, unit, samples) in self.metrics.items():
            count = "" if samples is None else f"  (n={samples})"
            self.report.append(f"{name:40s} {value:14.6f} {unit}{count}")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in self.metrics.items()},
        }
        return result, self.report

    def _layer_metrics(self, untraced: dict, window: dict, traced: dict) -> None:
        b = traced["breakdown"]
        counts = traced["counts"]
        stats = untraced["stats"]
        requests = len(b.requests)

        def us(values: list[int]) -> float:
            return median_or_zero(values) / 1e3

        http = b.per_request("api.http")
        self.metric("api.http.self_us_p50", us(http), "us", len(http))
        self.metric("api.http.self_us_p99",
                    reported_percentile(http, 99) / 1e3 if http else 0.0,
                    "us", len(http))
        decode = b.layer_calls("api.protocol", "decode")
        self.metric("api.protocol.decode_us_p50", us(decode), "us", len(decode))
        self.metric("api.protocol.decode_calls", len(decode), "count")
        service = b.per_request("api.service")
        self.metric("api.service.self_us_p50", us(service), "us", len(service))
        self.metric("api.service.pipeline_commands_mean",
                    stats["pipeline_commands"] / stats["pipelines"]
                    if stats["pipelines"] else 0.0, "count")
        manager = b.per_request("service.manager")
        self.metric("service.manager.self_us_p50", us(manager), "us", len(manager))
        self.metric("service.manager.calls",
                    len(b.layer_calls("service.manager")), "count")
        session = b.per_request("exploration.session")
        self.metric("exploration.session.self_us_p50", us(session), "us", len(session))
        mask = b.layer_calls("exploration.engine", "mask")
        hist = b.layer_calls("exploration.engine", "hist")
        self.metric("exploration.engine.mask_us_p50", us(mask), "us", len(mask))
        self.metric("exploration.engine.mask_calls", len(mask), "count")
        self.metric("exploration.engine.hist_us_p50", us(hist), "us", len(hist))
        self.metric("exploration.engine.hist_calls", len(hist), "count")
        self.metric("exploration.engine.mask_hit_rate",
                    _rate(stats["mask_cache_hits"], stats["mask_cache_misses"]),
                    "ratio")
        self.metric("exploration.engine.hist_hit_rate",
                    _rate(stats["hist_cache_hits"], stats["hist_cache_misses"]),
                    "ratio")
        propose = b.layer_calls("exploration.heuristics", "propose")
        self.metric("exploration.heuristics.propose_us_p50", us(propose), "us",
                    len(propose))
        tests = b.layer_calls("stats.tests")
        self.metric("stats.tests.us_p50", us(tests), "us", len(tests))
        self.metric("stats.tests.calls", len(tests), "count")
        decisions = b.layer_calls("procedures")
        self.metric("procedures.test_us_p50", us(decisions), "us", len(decisions))
        self.metric("procedures.tests", len(decisions), "count")
        self.metric("procedures.rejections", counts["rejections"], "count")
        self.metric("procedures.exhausted_sessions",
                    _ended(traced["runner"])["exhausted"], "count")
        commits = b.layer_calls("store", "commit")
        fsyncs = b.layer_calls("store", "fsync")
        runner = traced["runner"]
        self.metric("store.commit_us_p50", us(commits), "us", len(commits))
        self.metric("store.commits", len(commits), "count")
        self.metric("store.fsyncs_per_command",
                    len(fsyncs) / traced["traced_commands"], "count")
        self.metric("store.bytes_per_command",
                    runner.store_bytes / runner.store_commands
                    if runner.store_commands else 0.0, "B")
        replays = b.totals.get(("service.manager", "recover_session"), [])
        self.metric("store.replay_ms_p50", median_or_zero(replays) / 1e6, "ms",
                    len(replays))
        router = b.per_request("cluster.router")
        self.metric("cluster.router.self_us_p50", us(router), "us", len(router))
        self.metric("cluster.router.forwards_per_request",
                    len(b.layer_calls("api.http", "forward")) / requests, "count")
        self.metric("cluster.router.fresh_recovers", counts["fresh_recovers"],
                    "count")
        for layer in LAYERS:
            self.metric(f"{layer}.self_share", b.share(layer), "ratio")
        self.metric("server.cpu_ms_per_command",
                    untraced["server_cpu_ms_per_command"], "ms")
        self.metric("loadgen.cpu_share", untraced["loadgen_cpu_share"], "ratio")
        self.metric("loadgen.send_lag_p99_ms", window["lag_p99"], "ms",
                    window["lags"])
        samples = traced["samples"]
        self.metric("trace.overhead_ratio",
                    median_or_zero(samples[True]) / median_or_zero(samples[False]),
                    "ratio", len(samples[True]))
        unattributed = b.per_request("loadgen")
        self.metric("trace.unattributed_us_p50", us(unattributed), "us",
                    len(unattributed))
        self.metric("request_p99_ms", window["p99"], "ms", window["n"])
        self.metric("recover_p50_ms", window["recover_p50"], "ms", window["recovers"])
        self.metric("failed_share", self.failed / self.attempted, "ratio",
                    self.attempted)


def _alternate(runner, conn, analysts, tracer, samples) -> int:
    """Warm up, then alternate traced and untraced blocks of turns until
    ``TRACED_REQUESTS`` traced requests; returns the traced commands."""
    index = 0
    warm_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < warm_end:
        runner.turn(analysts[index % len(analysts)], conn)
        index += 1
    traced_commands = 0
    on = False
    block = 0
    while len(samples[True]) < TRACED_REQUESTS:
        if block <= 0:
            on = not on
            block = TRACE_BLOCK if on else TRACE_BLOCK // 2
            if on:
                tracer.install()
            else:
                tracer.uninstall()
            conn.request_span = tracer.request if on else None
        exchanges = runner.turn(analysts[index % len(analysts)], conn)
        index += 1
        samples[on].extend(e.done - e.sent for e in exchanges)
        block -= len(exchanges)
        if on:
            traced_commands += sum(commands_in(e.payload) for e in exchanges)
    tracer.uninstall()
    conn.request_span = None
    return traced_commands


def _wind_down(runner, analysts, port: int) -> None:
    """Close every session still open, over a connection to *port*."""
    with Client(port=port, auto_idem=False) as client:
        runner.wind_down(analysts, Connection(client, Tally()))


def _shares(counts: Counter) -> str:
    total = sum(counts.values())
    return ", ".join(f"{name} {n / total:.3f}" for name, n in counts.most_common())


def _ended(runner) -> Counter:
    """How the runner's sessions ended ("exhausted", "length", "")."""
    return Counter(session.ended for session in runner.sessions)


@contextlib.contextmanager
def _collector_paused():
    """Keep the load generator's garbage collector out of the timings of
    the untraced run (the servers run in their own processes)."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def _tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                continue
    return total
