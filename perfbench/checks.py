"""Output checks for the benchmark workloads.

Each checker reads the CSV files one ``eerk`` CLI run wrote and returns a
dict ``{label: [reasons]}`` naming the methods whose outputs are wrong.
The label ``"*"`` stands for a failure of the whole run.  An empty dict
means every output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# criterion 6: sine IC, kappa 2, h = pi/320, halving steps from 0.01,
# reference eerk2w:c2=3/11 at tau/32 (errors, orders)
GOLDEN_SECOND_ORDER = {
    "eerk2w:c2=1": ([6.106e-3, 1.750e-3, 4.744e-4, 1.220e-4], [1.80, 1.88, 1.96]),
    "eerk2w:c2=3/4": ([5.149e-3, 1.462e-3, 3.932e-4, 1.001e-4], [1.82, 1.89, 1.97]),
    "eerk2w:c2=1/2": ([4.122e-3, 1.161e-3, 3.098e-4, 7.798e-5], [1.83, 1.91, 1.99]),
    "eerk2w:c2=3/11": ([3.119e-3, 8.756e-4, 2.323e-4, 5.756e-5], [1.83, 1.91, 2.01]),
}
ORDER_TOL = 0.15
ERROR_FACTOR = 2.0
_FINAL_ORDERS = [orders[-1] for _, orders in GOLDEN_SECOND_ORDER.values()]
# other abscissas: the final order lies in the band the golden final orders
# span, widened by the golden tolerance
ORDER_BAND = (round(min(_FINAL_ORDERS) - ORDER_TOL, 2), round(max(_FINAL_ORDERS) + ORDER_TOL, 2))
ENERGY_RTOL = 1e-10   # criterion 8
MARGIN_TOL = 1e-9     # criterion 8, times max(1, max |E|)
ETD2CF3_WITNESS_MAX = -6.0   # criterion 4
DEFAULT_GRID_POINTS = 800
_STAGES = {"etd1": 1, "eerk2": 2, "eerk2w": 2, "eerk2s": 3, "eerk31": 3, "eerk32": 3,
           "etd3rk": 3, "etd2cf3": 3, "cm4": 4, "krogstad4": 4, "sw4": 4, "ho4": 5}


def slug(label: str) -> str:
    """File stem the eerk drivers use for a method label."""
    for ch in ":=,/":
        label = label.replace(ch, "-")
    return label


def stages(label: str) -> int:
    return _STAGES[label.split(":")[0]]


def read_csv(path: Path):
    """Header and rows (lists of strings) of a driver CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


def _floats(rows, col):
    return [None if row[col] == "" else float(row[col]) for row in rows]


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def check_converge(spec: dict, out: Path) -> dict:
    bad = {}
    for label in spec["methods"]:
        reasons = []
        path = out / f"{slug(label)}_convergence.csv"
        if not path.is_file():
            bad[label] = [f"missing {path.name}"]
            continue
        header, rows = read_csv(path)
        errors, orders = _floats(rows, 1), _floats(rows, 2)[1:]
        if header != ["tau", "error", "order"] or len(rows) != 4:
            reasons.append(f"unexpected table shape {header} x {len(rows)}")
        elif not (_finite(errors) and _finite(orders)):
            reasons.append("non-finite error or order")
        elif spec.get("golden"):
            gold_errors, gold_orders = GOLDEN_SECOND_ORDER[label]
            for e, g in zip(errors, gold_errors):
                if not g / ERROR_FACTOR <= e <= g * ERROR_FACTOR:
                    reasons.append(f"error {e:.4g} vs golden {g:.4g}")
            for o, g in zip(orders, gold_orders):
                if abs(o - g) > ORDER_TOL:
                    reasons.append(f"order {o:.3f} vs golden {g:.2f}")
        else:
            if any(b >= a for a, b in zip(errors, errors[1:])):
                reasons.append(f"errors do not decrease: {errors}")
            if not ORDER_BAND[0] <= orders[-1] <= ORDER_BAND[1]:
                reasons.append(f"final order {orders[-1]:.3f} outside {ORDER_BAND}")
        if reasons:
            bad[label] = reasons
    return bad


def check_energy(spec: dict, out: Path) -> dict:
    steps = round(float(spec["config"]["T"]) / float(spec["config"]["tau"]))
    bad = {}
    for label in spec["methods"]:
        stem = slug(label)
        files = [out / f"{stem}_{kind}.csv" for kind in ("energy", "margins", "final")]
        missing = [p.name for p in files if not p.is_file()]
        if missing:
            bad[label] = [f"missing {missing}"]
            continue
        reasons = []
        _, erows = read_csv(files[0])
        energies = _floats(erows, 1)
        _, mrows = read_csv(files[1])
        margins = [float(v) for row in mrows for v in row[1:]]
        _, frows = read_csv(files[2])
        if len(energies) != steps + 1 or len(mrows) != steps:
            reasons.append(f"diverged or truncated: {len(energies)} energies, {len(mrows)} margin rows")
        elif any(len(row) != 1 + stages(label) for row in mrows):
            reasons.append("margin rows do not have one column per stage")
        elif not (_finite(energies) and _finite(margins) and _finite(_floats(frows, 1))):
            reasons.append("non-finite output")
        else:
            for i, (a, b) in enumerate(zip(energies, energies[1:])):
                if b - a > ENERGY_RTOL * abs(a):
                    reasons.append(f"energy increased at step {i + 1}: {a!r} -> {b!r}")
                    break
            floor = -MARGIN_TOL * max(1.0, max(abs(e) for e in energies))
            if min(margins) < floor:
                reasons.append(f"stage margin {min(margins):.3e} < {floor:.3e}")
        if reasons:
            bad[label] = reasons
    return bad


def check_classify(spec: dict, out: Path) -> dict:
    path = out / "classification.csv"
    if not path.is_file():
        return {"*": ["missing classification.csv"]}
    _, rows = read_csv(path)
    # labels such as "eerk32:c2=1,c3=1/2" are written unquoted: the four
    # trailing fields are verdict and witness, the rest is the label
    found = {",".join(row[:-4]): row[-4:] for row in rows}
    bad = {}
    for label, expected in spec["expect"].items():
        reasons = []
        row = found.get(label)
        if row is None:
            bad[label] = ["not classified"]
            continue
        verdict = "PSD" if row[0].startswith("PSD") else row[0]
        if verdict != expected:
            reasons.append(f"verdict {row[0]} where {expected} expected")
        if verdict == "NPD" and not (row[1] and math.isfinite(float(row[1]))):
            reasons.append("NPD verdict without a witness")
        if label == "etd2cf3" and row[1] and float(row[1]) >= ETD2CF3_WITNESS_MAX:
            reasons.append(f"etd2cf3 witness {row[1]} not < {ETD2CF3_WITNESS_MAX}")
        minors = out / f"{slug(label)}_minors.csv"
        if not minors.is_file():
            reasons.append(f"missing {minors.name}")
        else:
            header, mrows = read_csv(minors)
            if len(mrows) != DEFAULT_GRID_POINTS or len(header) != 2 + stages(label):
                reasons.append(f"minor curve shape {len(mrows)} x {len(header)}")
            elif not _finite([float(v) for row in mrows for v in row]):
                reasons.append("non-finite value in minor curve")
        if reasons:
            bad[label] = reasons
    if len(found) != len(spec["expect"]):
        bad.setdefault("*", []).append(f"{len(found)} rows for {len(spec['expect'])} methods")
    return bad


CHECKERS = {"converge": check_converge, "energy": check_energy, "classify": check_classify}


def failed_ops(spec: dict, bad: dict) -> int:
    """Operations (integrate runs or classifications) lost to failures."""
    total = sum(spec["ops"].values())
    if "*" in bad:
        return total
    return min(total, sum(spec["ops"].get(label, 1) for label in bad))
