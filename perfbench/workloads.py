"""Seeded workload specs for the eerk benchmark.

Every abscissa is drawn as an exact rational ``p/q`` (``q <= 12``) so that
specs round-trip through ``eerk.tableaux.parse_method`` and the CSV bytes
of a run depend only on the seed.  Seed 0 reproduces the shipped configs
(``configs/table-second-order.cfg``, ``configs/energy-decay.cfg``, with the
final times below); other seeds draw from ranges where each output check in
``checks.py`` is a theorem of the paper:

* convergence and the stage energy law hold for ``eerk2w`` with
  ``c2 >= 3/11`` and ``eerk31`` with ``c2 >= 4/9``;
* a family sweep is PSD exactly when ``c2`` reaches its threshold
  (``eerk2`` 1/2, ``eerk2w`` 3/11, ``eerk31`` 4/9); every ``p/q`` with
  ``q <= 12`` in ``(0, 1]`` was classified at the seed commit and follows
  that rule on the default grid;
* the ``eerk32`` plane is the whole tenths lattice, the same for every
  seed, with the verdicts recorded at the seed commit
  (``eerk32_plane.json``).  Keeping it fixed keeps the classification
  work, and so the timings, the same from seed to seed.

Run ``python3 perfbench/workloads.py --record-plane`` from the repository
root to re-record the lattice verdicts.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

F = Fraction
HERE = Path(__file__).resolve().parent
PLANE_FILE = HERE / "eerk32_plane.json"

WORKLOADS = ("converge", "energy", "classify")
DEFAULT_SEED = 0

# the standard mesh: h = pi/320, 639 interior points on (0, 2*pi)
H = "0.00981747704246810387"
# Final times.  The criterion-6 table at T=1/2 reproduces the T=8 golden
# errors and orders to 4 digits (the maximum error is reached early), and
# monotone energies and nonnegative margins are laws of every step, so
# shorter horizons keep the checks while fitting several passes in a run.
CONVERGE_T = "0.5"
ENERGY_T = "40"

THRESHOLDS = {"eerk2": F(1, 2), "eerk2w": F(3, 11), "eerk31": F(4, 9)}
SWEEP_BELOW = 5   # draws per family below its threshold
SWEEP_ABOVE = 5   # and at or above it

# criterion 4: the catalog verdicts (13 PSD, 6 NPD)
CATALOG_PSD = (["etd1"]
               + [f"eerk2:c2={c}" for c in ("1/2", "3/4", "1")]
               + [f"eerk2w:c2={c}" for c in ("3/11", "1/2", "1")]
               + [f"eerk31:c2={c}" for c in ("4/9", "2/3", "1")]
               + ["eerk32:c2=1,c3=1/2", "eerk32:c2=3/4,c3=3/5", "eerk32:c2=1/2,c3=7/10"])
CATALOG_NPD = ["etd3rk", "etd2cf3", "cm4", "krogstad4", "sw4", "ho4"]


def rationals(lo: Fraction, hi: Fraction, *, include_lo: bool = True) -> list:
    """Sorted distinct ``p/q`` with ``q <= 12`` in ``[lo, hi]`` (or ``(lo, hi]``)."""
    out = {F(p, q) for q in range(1, 13) for p in range(1, q + 1)}
    return sorted(x for x in out if (lo <= x if include_lo else lo < x) and x <= hi)


def _label(name: str, c2: Fraction) -> str:
    return f"{name}:c2={c2}"


def converge_spec(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        c2s = [F(1), F(3, 4), F(1, 2), F(3, 11)]
    else:
        c2s = sorted(random.Random(seed).sample(rationals(F(3, 11), F(1)), 4), reverse=True)
    methods = [_label("eerk2w", c) for c in c2s]
    config = {
        "method": ", ".join(methods), "ic": "sine", "eps": "0.2", "kappa": "2", "h": H,
        "T": CONVERGE_T, "tau": "0.01, 0.005, 0.0025, 0.00125",
        "ref_method": "eerk2w:c2=3/11", "ref_tau": "0.0003125",
    }
    # one integrate run per (method, tau), plus the reference run
    ops = {m: 4 for m in methods}
    ops["reference"] = 1
    return {"workload": "converge", "command": "converge", "methods": methods,
            "golden": seed == DEFAULT_SEED, "config": config, "ops": ops}


def energy_spec(seed: int) -> dict:
    if seed == DEFAULT_SEED:
        c2w = [F(3, 11), F(1, 2), F(3, 4), F(1)]
        c31 = [F(4, 9), F(1, 2), F(2, 3), F(1)]
    else:
        rng = random.Random(seed)
        c2w = sorted(rng.sample(rationals(F(3, 11), F(1)), 4))
        c31 = sorted(rng.sample(rationals(F(4, 9), F(1)), 4))
    methods = [_label("eerk2w", c) for c in c2w] + [_label("eerk31", c) for c in c31]
    config = {
        "method": ", ".join(methods), "ic": "bumps", "eps": "0.2", "kappa": "2", "h": H,
        "tau": "0.1", "T": ENERGY_T, "monitor": "on",
    }
    return {"workload": "energy", "command": "energy", "methods": methods,
            "config": config, "ops": {m: 1 for m in methods}}


def load_plane() -> dict:
    """Recorded eerk32 lattice verdicts: label -> ``PSD`` or ``NPD``."""
    return json.loads(PLANE_FILE.read_text())["verdicts"]


def classify_spec(seed: int) -> dict:
    rng = random.Random(seed)
    expect = {m: "PSD" for m in CATALOG_PSD}
    expect.update({m: "NPD" for m in CATALOG_NPD})
    for name, thr in THRESHOLDS.items():
        below = [c for c in rationals(F(0), thr, include_lo=False) if c < thr]
        above = rationals(thr, F(1))
        for pool, k, verdict in ((below, SWEEP_BELOW, "NPD"), (above, SWEEP_ABOVE, "PSD")):
            pool = [c for c in pool if _label(name, c) not in expect]
            expect.update({_label(name, c): verdict for c in rng.sample(pool, k)})
    for label, verdict in load_plane().items():
        expect.setdefault(label, verdict)
    methods = list(expect)
    return {"workload": "classify", "command": "analyze", "methods": methods,
            "expect": expect, "config": {"method": ", ".join(methods)},
            "ops": {m: 1 for m in methods}}


def make_spec(workload: str, seed: int) -> dict:
    spec = {"converge": converge_spec, "energy": energy_spec,
            "classify": classify_spec}[workload](seed)
    spec["seed"] = seed
    return spec


def config_text(spec: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in spec["config"].items())


def record_plane() -> None:
    """Classify the eerk32 tenths lattice and store the verdicts."""
    from eerk.tableaux import MethodError, get_method
    from eerk.dissipation import classify_method

    verdicts = {}
    tenths = [F(k, 10) for k in range(1, 11)]
    for c2 in tenths:
        for c3 in tenths:
            try:
                method = get_method("eerk32", c2=c2, c3=c3)
            except MethodError:
                continue
            verdicts[method.label] = "PSD" if classify_method(method).is_psd else "NPD"
    PLANE_FILE.write_text(json.dumps(
        {"lattice": "eerk32 c2, c3 in {1/10, ..., 10/10}, pairs get_method accepts",
         "grid": "default classification grid", "verdicts": verdicts}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-plane"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/workloads.py --record-plane")
    record_plane()
