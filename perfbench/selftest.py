"""Self-test of the output checkers: each accepts a well-formed output and
rejects every corruption of it listed below.

Usage: ``python3 perfbench/selftest.py`` (exit code 0 when all hold).
The outputs are synthesised from the expectations the checkers encode,
in the CSV layout the eerk drivers write; no eerk code runs.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _write(path: Path, header, rows) -> None:
    text = [",".join(header)] + [",".join("" if v is None else str(v) for v in r) for r in rows]
    path.write_text("\n".join(text) + "\n")


def write_converge(spec: dict, out: Path) -> None:
    for label in spec["methods"]:
        if spec["golden"]:
            errors = checks.GOLDEN_SECOND_ORDER[label][0]
        else:
            errors = [4e-3 / 4 ** k for k in range(4)]
        rows = [(0.01 / 2 ** k, e, None if k == 0 else math.log2(errors[k - 1] / e))
                for k, e in enumerate(errors)]
        _write(out / f"{checks.slug(label)}_convergence.csv", ["tau", "error", "order"], rows)


def write_energy(spec: dict, out: Path) -> None:
    steps = round(float(spec["config"]["T"]) / float(spec["config"]["tau"]))
    for label in spec["methods"]:
        stem = checks.slug(label)
        s = checks.stages(label)
        _write(out / f"{stem}_energy.csv", ["t", "energy"],
               [(0.1 * n, 1.0 + math.exp(-0.01 * n)) for n in range(steps + 1)])
        _write(out / f"{stem}_margins.csv", ["t"] + [f"margin_{j}" for j in range(1, s + 1)],
               [(0.1 * n, *[1e-6] * s) for n in range(1, steps + 1)])
        _write(out / f"{stem}_final.csv", ["x", "u"], [(0.01 * i, 0.5) for i in range(639)])


def write_classify(spec: dict, out: Path) -> None:
    rows = []
    for label, verdict in spec["expect"].items():
        s = checks.stages(label)
        witness = ("", "", "") if verdict == "PSD" else (
            -6.007 if label == "etd2cf3" else -1.0, 2, -0.5)
        rows.append((label, "PSD-on-grid" if verdict == "PSD" else "NPD", *witness))
        _write(out / f"{checks.slug(label)}_minors.csv",
               ["z", "rate"] + [f"minor_{j}" for j in range(1, s + 1)],
               [(-i, 1.0, *[0.5] * s) for i in range(checks.DEFAULT_GRID_POINTS)])
    _write(out / "classification.csv",
           ["method", "verdict", "witness_z", "witness_minor", "witness_value"], rows)


def _edit(path: Path, line: int, field: int, value) -> None:
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[field] = str(value)
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _cut(path: Path, keep: int) -> None:
    path.write_text("\n".join(path.read_text().splitlines()[:keep]) + "\n")


def cases():
    """(name, spec, writer, corruption) for every checker."""
    conv0 = workloads.converge_spec(0)
    conv1 = workloads.converge_spec(1)
    energy = workloads.energy_spec(0)
    classify = workloads.classify_spec(0)
    c0 = checks.slug(conv0["methods"][0]) + "_convergence.csv"
    c1 = checks.slug(conv1["methods"][2]) + "_convergence.csv"
    e0 = checks.slug(energy["methods"][4])
    npd = next(m for m, v in classify["expect"].items() if v == "NPD" and m.startswith("eerk32"))
    return [
        ("converge golden error x3", conv0, write_converge,
         lambda out: _edit(out / c0, 2, 1, 3 * checks.GOLDEN_SECOND_ORDER[conv0["methods"][0]][0][1])),
        ("converge golden order off", conv0, write_converge, lambda out: _edit(out / c0, 4, 2, 1.7)),
        ("converge errors not decreasing", conv1, write_converge, lambda out: _edit(out / c1, 3, 1, 1e-2)),
        ("converge final order outside band", conv1, write_converge,
         lambda out: _edit(out / c1, 4, 2, 1.2)),
        ("converge table missing", conv1, write_converge, lambda out: (out / c1).unlink()),
        ("energy increase", energy, write_energy, lambda out: _edit(out / f"{e0}_energy.csv", 200, 1, 3.0)),
        ("energy negative margin", energy, write_energy,
         lambda out: _edit(out / f"{e0}_margins.csv", 7, 2, -1e-6)),
        ("energy truncated run", energy, write_energy, lambda out: _cut(out / f"{e0}_energy.csv", 100)),
        ("energy non-finite state", energy, write_energy, lambda out: _edit(out / f"{e0}_final.csv", 5, 1, "nan")),
        ("classify flipped verdict", classify, write_classify,
         lambda out: (out / "classification.csv").write_text(
             (out / "classification.csv").read_text().replace(f"{npd},NPD", f"{npd},PSD-on-grid"))),
        ("classify etd2cf3 witness", classify, write_classify,
         lambda out: (out / "classification.csv").write_text(
             (out / "classification.csv").read_text().replace("-6.007", "-5.5"))),
        ("classify minor curve missing", classify, write_classify,
         lambda out: (out / f"{checks.slug(npd)}_minors.csv").unlink()),
        ("classify short minor curve", classify, write_classify,
         lambda out: _cut(out / "etd1_minors.csv", 400)),
    ]


def main() -> int:
    scratch = HERE.parent / ".perfbench-work" / f"selftest-{os.getpid()}"
    failures = []
    try:
        for name, spec, write, corrupt in cases():
            out = scratch / "out"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            write(spec, out)
            check = checks.CHECKERS[spec["workload"]]
            if check(spec, out):
                failures.append(f"{name}: well-formed output rejected: {check(spec, out)}")
                continue
            corrupt(out)
            bad = check(spec, out)
            print(f"{'rejects' if bad else 'MISSES ':8s} {name}: {bad}")
            if not bad:
                failures.append(f"{name}: corruption accepted")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
