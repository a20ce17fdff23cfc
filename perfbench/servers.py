"""Servers under test: ``repro serve`` subprocesses, or in-process hosts.

The untraced run measures the real deployment: ``repro serve`` launched
from this checkout's ``src/`` in its own process group, its set-up time
taken from launch to the serve banner, its memory and CPU read from
``/proc`` for the server process and every worker it spawned.

The traced run hosts the same services in the benchmark process, behind
the same asyncio HTTP server on real localhost sockets, so wrappers
installed in this process see every layer of a request.
"""

from __future__ import annotations

import contextlib
import gc
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The ready banner ``repro serve`` prints once it accepts connections (a
#: cluster's router prints it after every worker has printed its own).
BANNER_RE = re.compile(r"^repro API v\d+ serving on http://([\d.]+):(\d+)")

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0


def server_env(src: Path) -> dict[str, str]:
    """This process's environment (already stripped of the lock checker's
    variables by ``run.py``), importing ``repro`` from *src*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _proc_stat(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def children(pid: int) -> list[int]:
    """Every live descendant of *pid* (a cluster's workers)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None:
                parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = parents.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return [p for p in found if alive(p)]


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU consumed so far by *pids*."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        fields = _proc_stat(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / ticks


def peak_rss_mb(pids: list[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def filesystem_of(path: Path) -> str:
    """The filesystem type ``/proc/mounts`` lists for *path*."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        parts = line.split()
        if len(parts) >= 3:
            mount = parts[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, parts[2]
    return kind


class ServerProcess:
    """One ``repro serve`` launch, from fork to ready banner to teardown."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path) -> None:
        self.argv = argv
        self.env = env
        self.cwd = cwd
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0
        self.tail: list[str] = []
        self.workers: list[int] = []
        self._drain: threading.Thread | None = None

    def start(self) -> "ServerProcess":
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        assert self.proc.stdout is not None
        timer = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                self.tail = (self.tail + [line.rstrip("\n")])[-20:]
                match = BANNER_RE.search(line)
                if match:
                    self.port = int(match.group(2))
                    self.setup_s = time.perf_counter() - started
                    break
        finally:
            timer.cancel()
        if not self.port:
            self.stop()
            raise RuntimeError("server exited before its banner: "
                               + " | ".join(self.tail))
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        self.workers = children(self.proc.pid)
        return self

    def _read_rest(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.tail = (self.tail + [line.rstrip("\n")])[-20:]

    def pids(self) -> list[int]:
        assert self.proc is not None
        return [self.proc.pid, *self.workers]

    def all_alive(self) -> bool:
        """The server and every worker it started are still the same processes."""
        return all(alive(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGINT the server (a cluster then stops its workers), SIGKILL
        anything left in its process group, and wait for all of it."""
        if self.proc is None:
            return
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def serve_argv(rows: int, census_seed: int, store_path: Path | None) -> list[str]:
    argv = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
            "--rows", str(rows), "--seed", str(census_seed)]
    if store_path is not None:
        argv += ["--workers", "2", "--store", "jsonl", "--store-path",
                 str(store_path), "--store-fsync", "batch"]
    return argv


class InProcessServers:
    """The workload's servers hosted in this process, over localhost HTTP.

    Mirrors ``repro serve`` defaults: one ``ExplorationService`` for a
    single node; for the cluster, two jsonl-store workers sharing one store
    path behind a ``RouterService`` with the same worker ids.
    """

    def __init__(self, rows: int, census_seed: int,
                 store_path: Path | None) -> None:
        self.rows = rows
        self.census_seed = census_seed
        self.store_path = store_path
        self.threads: list = []
        self.stores: list = []
        self.port = 0

    def _service(self):
        from repro.api.service import ExplorationService
        from repro.service.manager import SessionManager
        from repro.workloads.census import make_census

        store = None
        if self.store_path is not None:
            from repro.store import make_store

            store = make_store("jsonl", self.store_path, fsync="batch")
            self.stores.append(store)
        manager = SessionManager(store=store)
        service = ExplorationService(manager=manager)
        service.register_dataset(make_census(self.rows, seed=self.census_seed),
                                 name="census")
        if store is not None:
            manager.recover_all()
        return service

    def _serve(self, service) -> int:
        from repro.api.http import ServerThread

        thread = ServerThread(service).start()
        self.threads.append(thread)
        return thread.port

    def start(self) -> "InProcessServers":
        if self.store_path is None:
            self.port = self._serve(self._service())
            return self
        from repro.cluster import RemoteWorker, RouterService

        router = RouterService()
        for index in range(2):
            worker_id = f"w{index}"
            port = self._serve(self._service())
            router.add_worker(worker_id,
                              RemoteWorker(worker_id, "127.0.0.1", port))
        self.port = self._serve(router)
        return self

    def stop(self) -> None:
        """Stop the front server first, then the workers.  Before each stop,
        collect closed clients (the router's forwarding connections among
        them) and let the server finish closing their connections."""
        for thread in reversed(self.threads):
            gc.collect()
            time.sleep(0.2)
            thread.stop()
        for store in self.stores:
            store.close()
