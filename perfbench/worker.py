"""One workload in a fresh process: set-up, timed passes, output checks.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py SPEC.json --setup-only
    python3 perfbench/worker.py SPEC.json --seconds 10 [--trace]

A pass is one ``eerk`` CLI run of the spec's config (``converge``,
``energy`` or ``analyze`` with ``--out``).  Passes repeat while the next is
expected to end within ``--seconds``; there is always at least one.  The
worker prints one JSON object as its last line.  A traced worker also
writes its spans next to the run's working directory
(``.perfbench-work/spans-<workload>-seed<seed>.npz``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import checks


def set_up(spec: dict, config: Path) -> float:
    """Import eerk, parse the config and method specs, build operator and
    problem: everything before the first driver call."""
    start = time.perf_counter()
    import eerk.bench

    cfg = eerk.bench.load_config(config)
    cfg.tableaux()
    if spec["workload"] != "classify":
        cfg.initial_state(cfg.problem())
    return time.perf_counter() - start


class CallTimer:
    """Times the driver's calls into ``integrate`` and the classifier at the
    ``eerk.bench`` bindings: two clock reads per call."""

    def __init__(self):
        self.runs = []        # (seconds, steps) per integrate call
        self.classify = {}    # label -> seconds of classify_method + scan_method

    def install(self, bench) -> None:
        integrate, classify, scan = bench.integrate, bench.classify_method, bench.scan_method

        def timed_integrate(*args, **kwargs):
            t = time.perf_counter()
            report = integrate(*args, **kwargs)
            self.runs.append((time.perf_counter() - t, report.n_steps))
            return report

        def timed(fn):
            def call(tableau, *args, **kwargs):
                t = time.perf_counter()
                result = fn(tableau, *args, **kwargs)
                label = tableau.label
                self.classify[label] = self.classify.get(label, 0.0) + time.perf_counter() - t
                return result
            return call

        bench.integrate = timed_integrate
        bench.classify_method = timed(classify)
        bench.scan_method = timed(scan)


def provenance(spec: dict, config: Path) -> dict:
    import numpy
    import scipy
    import eerk
    import eerk.bench

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "eerk": getattr(eerk, "__version__", None),
        "m": None,
        "transform": None,
    }
    if spec["workload"] != "classify":
        op = eerk.bench.load_config(config).problem().op
        info["m"] = op.m
        info["transform"] = getattr(op, "transform", "fft")
    return info


def run(spec: dict, config: Path, out: Path, seconds: float, trace: bool) -> dict:
    import eerk.bench
    import eerk.cli

    timer = CallTimer()
    timer.install(eerk.bench)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    argv = [spec["command"], "--config", str(config), "--out", str(out)]
    ops = sum(spec["ops"].values())
    passes, op_ms, failures = [], [], {}
    begin = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        timer.runs.clear()
        timer.classify.clear()
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = eerk.cli.main(argv)
        except Exception as exc:  # a crash of the program fails the pass
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        bad = checks.CHECKERS[spec["workload"]](spec, out) if code == 0 else {
            "*": [f"exit {code}: {captured.getvalue()[-500:]}"]}
        failures.update(bad)
        if spec["workload"] == "classify":
            op_ms += [1e3 * s for s in timer.classify.values()]
            work = (len(timer.classify), sum(timer.classify.values()))
        else:
            op_ms += [1e3 * s / n for s, n in timer.runs if n]
            work = (sum(n for _, n in timer.runs), sum(s for s, _ in timer.runs))
        passes.append({"wall_s": wall, "ops": ops, "failed": checks.failed_ops(spec, bad),
                       "work": work[0], "work_s": work[1]})
        if time.perf_counter() - begin + wall > seconds:
            break
    result = {"passes": passes, "op_ms": op_ms,
              "failures": {k: v[:3] for k, v in list(failures.items())[:10]}}
    if tracer is not None:
        result["layers"] = tracer.summary(len(passes))
        result["trace_missing"] = tracer.missing
        tracer.dump(out.parent.parent / f"spans-{spec['workload']}-seed{spec['seed']}.npz")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    config = spec_path.with_name("workload.cfg")
    setup_s = set_up(spec, config)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run(spec, config, spec_path.parent / ("out-trace" if args.trace else "out"),
                 args.seconds, args.trace)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance(spec, config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
