"""statcert benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

With --trace 0 it drives the real `audit` CLI on a seeded workspace and
reports the end-to-end metrics. With --trace 1 it re-enacts the workload's
stages in process under spans and reports the per-layer metrics. --smoke
runs every workload both ways at tiny sizes and checks that every metric
BENCHMARK.json names is reported with its unit. Run it from the repository
root. The last line of standard output is the result as one JSON object;
the line before it holds informational details. The exit code is 0 only
when every command's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SMOKE_SECONDS = 0.1


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    import numpy.linalg  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result line)."""
    import timed
    import workloads as W

    workload = W.WORKLOADS[name]
    root = WORK / ("smoke" if smoke else "") / name

    def setup(where: Path) -> tuple[W.Workspace, float]:
        start = time.perf_counter()
        ws = W.generate(workload, where, seed, smoke)
        return ws, time.perf_counter() - start

    ws, first_setup_s = setup(root)
    setups = [first_setup_s]
    details = {"workload": name, "seed": seed, "smoke": smoke,
               "sizes": vars(ws.sizes), "ledger_entries": ws.ledger_entries,
               "expected_verdict": workload.write_verdict,
               "setup_runs_s": setups, "environment": environment()}

    if trace:
        import traced

        metrics, extra = traced.traced_run(workload, ws, seed, seconds, smoke, SRC, root)
        details.update(extra)
        result = {"correct": not extra["failed_ops"], "attempted": extra["ops"],
                  "failed": extra["failed_ops"],
                  "metrics": {k: metric(v, u) for k, (v, u) in metrics.items()}}
        return details, result

    run = timed.timed_run(workload, ws, lambda: setup(root / "setup")[1], seconds, SRC, root)
    children, errors = run["children"], run["errors"]
    setups += run["setups_s"]
    write = "run" if workload.kind == "certify" else "monitor"
    ok_share = 1 - len(errors) / len(children)
    details.update({
        "commands": run["commands"], "probe_loop_s": run["probe_loop_s"],
        "kloops": run["kloops"], "cycle_kloops": run["cycle_kloops"],
        "timed_phase_s": run["elapsed_s"],
        # correctly completed commands per second of command wall time
        "ops_per_s": ok_share * len(children) / sum(run["cycle_wall_s"]),
        "failed_frac": len(errors) / len(children), "errors": errors[:5],
        "outputs": run["info"],
    })
    result = {
        "correct": not errors,
        "attempted": len(children),
        "failed": len(errors),
        "metrics": {
            "write_wall_kloop": metric(statistics.median(run["kloops"][write]), "kloop"),
            "verify_wall_kloop": metric(statistics.median(run["kloops"]["verify"]), "kloop"),
            # correctly completed commands per probe kiloloop of command work
            "ops_per_kloop": metric(ok_share * len(timed.CYCLES[workload.kind])
                                    / statistics.median(run["cycle_kloops"]), "1/kloop"),
            "peak_rss_mb": metric(max(c.maxrss_mib for c in children), "MiB"),
            # set-up wall time at the machine speed where the probe loop takes
            # NOMINAL_LOOP_S; the set-ups are spread over the run
            "setup_s": metric(statistics.median(setups) * timed.NOMINAL_LOOP_S
                              / run["probe_loop_s"], "s"),
        },
    }
    return details, result


def smoke() -> int:
    """Every workload, timed and traced, at tiny sizes; checks the schema."""
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in W.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            _, result = measure(name, 1, SMOKE_SECONDS, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{name} trace={int(trace)}: missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: outputs not correct")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, timed and traced")
    args = parser.parse_args(argv)
    if not (SRC / "statcert" / "cli.py").is_file():
        print(f"error: no statcert source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
