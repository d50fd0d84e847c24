"""Timed run: the real `audit` CLI in child processes, one at a time.

A closed loop with one client: the next command starts only after the
previous one has exited. Each child is timed from spawn to exit, and its
peak resident set comes from its own `wait4` rusage. Every command's exit
code, verdict and output are checked.

Times are read at equal machine speed. On a shared host the machine slows
by up to half and recovers within seconds, so a child's wall time depends
on how much of its life fell into a slow spell. While each child runs, a
thread of this process (`SpeedProbe`) times a tiny fixed pure-Python loop
every few milliseconds. A child's wall time over the median loop time
during its life is its length in probe loops, which no longer depends on
those spells. A few cycles also end with one more generation of the
workspace, so that set-up time is sampled across the run rather than only
at its start.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import workloads as W

# Commands of one cycle, each with whether the ledger is restored before it.
# certify and monitor write the ledger and then verify what they wrote,
# twice, since a verify of a 1- or 2-entry ledger is short and its time
# varies most; replay alternates a read of the big ledger with a write
# beside it.
CYCLES = {
    "certify": (("run", True), ("verify", False), ("verify", False)),
    "monitor": (("monitor", True), ("verify", False), ("verify", False)),
    "replay": (("verify", True), ("monitor", True)),
}
SETUP_MIN = 2           # set-ups within a timed run, after the one before it
SETUP_SHARE = 0.05      # beyond SETUP_MIN, set-ups only while within this share of the run
NOMINAL_LOOP_S = 100e-6 # probe loop time at which set-up times are reported
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class Child:
    kind: str
    started: float          # perf_counter at spawn
    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_mib: float


class SpeedProbe:
    """Times a tiny fixed loop every PERIOD_S in a background thread.

    The loop takes about 0.1 ms, so the probe uses well under 1 % of one
    CPU. The main thread only waits for children while the probe's samples
    are used, so the loop never waits for the GIL then."""

    LOOP = 2000
    PERIOD_S = 0.02

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []    # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            total = 0
            for i in range(self.LOOP):
                total += i
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def loop_s(self, child: Child) -> float:
        """Median loop time over the child's life."""
        end = child.started + child.wall_s
        during = [s for t, s in self.samples if child.started <= t < end]
        if not during:
            raise RuntimeError(f"no probe sample while {child.kind} ran")
        return statistics.median(during)


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment with the source tree importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn(kind: str, argv: list[str], env: dict[str, str], out_dir: Path) -> Child:
    """Run argv to completion; stdout and stderr go to files in out_dir."""
    out, err = out_dir / "stdout.txt", out_dir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Child(kind, start, wall, os.waitstatus_to_exitcode(status), out.read_text(),
                 err.read_text(), usage.ru_maxrss / 1024)


def argv_for(kind: str, ws: W.Workspace) -> list[str]:
    cli = [sys.executable, "-m", "statcert.cli"]
    if kind == "run":
        return cli + ["run", str(ws.config)]
    if kind == "verify":
        return cli + ["verify-ledger", str(ws.ledger)]
    argv = cli + ["monitor", str(ws.config), "--window", str(ws.window)]
    if ws.point_check is not None:
        argv += ["--point-check", str(ws.point_check)]
    return argv


class Mismatch(Exception):
    """A command's output is not the workload's expected result."""


@dataclass
class Checker:
    """Checks each command against the workload's expected result and
    against the first command of its kind in the run."""

    workload: W.Workload
    ws: W.Workspace
    first: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def verify_entries(self) -> int:
        # entries on disk when verify-ledger runs
        return self.ws.ledger_entries if self.workload.kind == "replay" else \
            self.ws.ledger_entries + 1

    def check(self, child: Child) -> str | None:
        """Return why the command is wrong, or None when it is right."""
        if child.code != 0:
            return f"{child.kind}: exit {child.code}: {child.stderr.strip()[-300:]}"
        try:
            fingerprint = getattr(self, "_" + child.kind)(child)
        except Mismatch as e:
            return f"{child.kind}: {e}"
        except (ValueError, KeyError, IndexError, TypeError, OSError) as e:
            return f"{child.kind}: unexpected output ({type(e).__name__}: {e})"
        expected = self.first.setdefault(child.kind, fingerprint)
        if fingerprint != expected:
            return f"{child.kind}: output differs from the run's first {child.kind}"
        return None

    def _run(self, child: Child) -> str:
        if child.stdout.splitlines()[0] != f"verdict: {self.workload.write_verdict}":
            raise Mismatch(f"stdout {child.stdout.splitlines()[0]!r}")
        raw = self.ws.report.read_bytes()
        report = json.loads(raw)
        if report["verdict"] != self.workload.write_verdict:
            raise Mismatch(f"report verdict {report['verdict']!r}")
        if report["checks"]["leakage"]["gate"] != "passed":
            raise Mismatch("leakage gate did not pass")
        entries = len(self.ws.ledger.read_text().splitlines())
        if entries != 1:
            raise Mismatch(f"ledger holds {entries} entries, expected 1")
        digest = hashlib.sha256(raw).hexdigest()
        self.info.setdefault("report_sha256", digest)
        self.info.setdefault("mpr_p_value", report["checks"]["mpr"][0]["test"]["p_value"])
        return digest

    def _monitor(self, child: Child) -> str:
        out = json.loads(child.stdout)
        if out["verdict"] != self.workload.write_verdict:
            raise Mismatch(f"verdict {out['verdict']!r}, expected "
                           f"{self.workload.write_verdict!r}")
        self.info.setdefault("shift_p_value", out["shift"]["per_feature"][0]["p_value"])
        if "point_check" in out:
            self.info.setdefault("point_check_p_value", out["point_check"]["test"]["p_value"])
        return child.stdout

    def _verify(self, child: Child) -> str:
        out = json.loads(child.stdout)
        if out["consistent"] is not True:
            raise Mismatch(f"ledger inconsistent: {out['detail']}")
        if out["n_entries"] != self.verify_entries():
            raise Mismatch(f"n_entries {out['n_entries']}, expected {self.verify_entries()}")
        return child.stdout


def summarize(walls: list[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(walls), "median_s": statistics.median(walls) if walls else None,
           "samples_s": walls}
    for p in TAIL_PERCENTILES:
        if len(walls) * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            cuts = statistics.quantiles(walls, n=1000, method="inclusive")
            out[f"p{p:g}_s"] = cuts[round(p * 10) - 1]
            break
    return out


def timed_run(workload: W.Workload, ws: W.Workspace, setup: Callable[[], float],
              seconds: float, src: Path, out_dir: Path) -> dict:
    """Repeat the workload's cycle for about `seconds`, set-ups included: a
    cycle starts while at least half the median cycle so far still fits, so
    runs end at `seconds` on average; at least one cycle runs. `setup`
    generates the workspace once more, elsewhere, and returns how long that
    took."""
    env = child_env(src)
    # compile bytecode and warm the page cache outside the timed phase
    warm = spawn("warm", [sys.executable, "-c", "import statcert.cli"], env, out_dir)
    if warm.code != 0:
        raise RuntimeError(f"cannot import statcert.cli: {warm.stderr.strip()}")

    checker = Checker(workload, ws)
    cycles: list[list[Child]] = []
    cycle_s: list[float] = []
    setups: list[float] = []
    errors: list[str] = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not cycle_s or (time.perf_counter() - start + statistics.median(cycle_s) / 2
                              <= seconds):
            cycle_start = time.perf_counter()
            cycles.append([])
            for kind, restore in CYCLES[workload.kind]:
                if restore:
                    W.restore(ws)
                child = spawn(kind, argv_for(kind, ws), env, out_dir)
                cycles[-1].append(child)
                problem = checker.check(child)
                if problem:
                    errors.append(problem)
            if len(setups) < SETUP_MIN or sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
                setups.append(setup())
            cycle_s.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start

    def kloops(child: Child) -> float:
        return child.wall_s / probe.loop_s(child) / 1000

    children = [c for cycle in cycles for c in cycle]
    lengths: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    for c in children:
        lengths.setdefault(c.kind, []).append(kloops(c))
        walls.setdefault(c.kind, []).append(c.wall_s)
    return {
        "children": children,
        "elapsed_s": elapsed,
        # while the main thread runs a set-up it holds the GIL, so only the
        # samples taken while children ran say how fast the machine was
        "probe_loop_s": statistics.median(probe.loop_s(c) for c in children),
        "setups_s": setups,
        "cycle_wall_s": [sum(c.wall_s for c in cycle) for cycle in cycles],
        "cycle_kloops": [sum(kloops(c) for c in cycle) for cycle in cycles],
        "kloops": lengths,
        "errors": errors,
        "commands": {f"{k}_wall_s": summarize(v) for k, v in sorted(walls.items())},
        "info": checker.info,
    }
