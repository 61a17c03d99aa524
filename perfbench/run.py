"""The eerk benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload converge --seed 0 --seconds 20 --trace 0

Workloads (see ``NOTES.md``): ``converge`` (criterion-6 convergence table),
``energy`` (criterion-8 monitored energy runs) and ``classify`` (catalog,
family sweeps and an ``eerk32`` plane through ``eerk analyze``).  The
program is run from the checkout's ``src`` directory in fresh worker
processes, which only receive the generated config.

``--trace 0`` reports the end-to-end metrics: set-up is measured in
``SETUP_REPEATS`` separate processes, then one worker times passes for
``--seconds``.  ``--trace 1`` gives half of ``--seconds`` to a traced worker,
between two untraced ones with a quarter each, and reports the per-layer
metrics, including the tracing overhead.  A provenance line precedes the
final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 9
DEADLINE_S = 170.0
# Single-threaded BLAS: the 639-point dense transform is a matrix-vector
# product that gains nothing from a second thread on this 2-core class of
# machine, and one thread keeps run-to-run spread low on a shared host.
BLAS_THREADS = "1"


def git_commit(root: Path):
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Worker:
    def __init__(self, spec_path: Path, deadline: float):
        self.spec_path = spec_path
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)

    def __call__(self, *flags) -> dict:
        """Run the worker to completion and return its JSON result."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.spec_path), *flags]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker {' '.join(flags)} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def end_to_end(result: dict, setups: list) -> dict:
    passes = result["passes"]
    op_ms = result["op_ms"]
    work = sum(p["work"] for p in passes)
    work_s = sum(p["work_s"] for p in passes)
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (work / work_s, "1/s", work),
        "op_ms_p50": (statistics.median(op_ms), "ms", len(op_ms)),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10, method="inclusive")[-1], "ms", len(op_ms)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="eerk benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "eerk" / "__init__.py").is_file():
        print(f"perfbench: no eerk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.make_spec(args.workload, args.seed)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        (workdir / "workload.cfg").write_text(workloads.config_text(spec))
        worker = Worker(spec_path, deadline)

        if args.trace:
            # untraced quarters on both sides of the traced half, so that a
            # steady drift of the host's speed cancels in the overhead
            quarter = str(args.seconds / 4)
            before = worker("--seconds", quarter)
            result = worker("--seconds", str(args.seconds / 2), "--trace")
            after = worker("--seconds", quarter)
            layers = result["layers"]
            plain_wall = statistics.median(p["wall_s"] for r in (before, after) for p in r["passes"])
            traced_wall = statistics.median(p["wall_s"] for p in result["passes"])
            layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
            metrics = {name: (value, _unit(name), len(result["passes"]))
                       for name, value in layers.items()}
            runs = [before, result, after]
        else:
            setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
            result = worker("--seconds", str(args.seconds))
            metrics = end_to_end(result, setups)
            runs = [result]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["ops"] for r in runs for p in r["passes"])
    failed = sum(p["failed"] for r in runs for p in r["passes"])
    info = dict(result["provenance"], nproc=os.cpu_count(), commit=git_commit(ROOT),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, methods=len(spec["methods"]),
                samples={name: n for name, (_, _, n) in metrics.items()},
                pass_wall_s=[p["wall_s"] for r in runs for p in r["passes"]],
                failures={k: v for r in runs for k, v in r["failures"].items()},
                trace_missing=result.get("trace_missing", []))
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("_mflop_computed"):
        return "Mflop"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
