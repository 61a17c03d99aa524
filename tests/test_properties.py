"""Property tests of the tableau catalog and of the command line,
derandomized and bounded.

Abscissas are drawn as exact fractions ``p/q`` in (0, 1]; ``eerk32`` is
drawn away from its three degenerate choices, which ``get_method`` refuses.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eerk.bench import parse_z_grid
from eerk.cli import main
from eerk.dissipation import (
    VARIANTS,
    SingularDiagonalError,
    _scan,
    average_dissipation_rate,
    default_z_grid,
    differentiation_matrix,
)
from eerk.tableaux import catalog, coefficient_matrix, get_method, parse_method
from oracles import verify_row_sums

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
GRID = default_z_grid()


def abscissas(max_q: int):
    return st.integers(1, max_q).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q)))


def _admitted(name: str, values: dict) -> bool:
    if name != "eerk32":
        return True
    c2, c3 = values["c2"], values["c3"]
    return Fraction(2, 3) not in (c2, c3) and c2 != c3


@st.composite
def tableaux(draw, max_q: int, families_only: bool = False):
    """A catalog tableau with drawn abscissas of denominator at most ``max_q``."""
    entries = [entry for entry in catalog() if entry[1] or not families_only]
    name, params, _ = draw(st.sampled_from(entries))
    values = draw(st.fixed_dictionaries({p: abscissas(max_q) for p in params})
                  .filter(lambda v: _admitted(name, v)))
    return get_method(name, **values)


@PROPERTY
@given(tableaux(max_q=10**6, families_only=True))
def test_label_round_trips_to_the_same_tableau(t):
    again = parse_method(t.label)
    assert again.label == t.label and again.c == t.c and again == t
    assert np.array_equal(coefficient_matrix(again, GRID), coefficient_matrix(t, GRID))


@PROPERTY
@given(tableaux(max_q=12), st.lists(st.floats(-1e8, 1.0), min_size=1, max_size=8))
def test_scalar_evaluation_is_the_row_of_a_batched_one(t, zs):
    z = np.array(zs)
    batch = coefficient_matrix(t, z)
    for i, zi in enumerate(zs):
        assert np.array_equal(coefficient_matrix(t, zi), batch[i]), (t.label, zi)


@PROPERTY
@given(tableaux(max_q=12), st.lists(st.floats(-1e4, 0.0), min_size=1, max_size=8),
       st.sampled_from(VARIANTS))
def test_scalar_scan_is_the_row_of_a_batched_one(t, zs, variant):
    # scan_method reads an NPD witness from the grid scan's row, so that row
    # must be what a scan of its z alone gives, minors and verdicts alike
    try:
        _, minors, below = _scan(t, np.array(zs), variant)
    except SingularDiagonalError:
        with pytest.raises(SingularDiagonalError):
            for zi in zs:
                _scan(t, zi, variant)
        return
    for i, zi in enumerate(zs):
        _, row_minors, row_below = _scan(t, zi, variant)
        assert minors[i].tobytes() == row_minors.tobytes(), (t.label, zi)
        assert np.array_equal(below[i], row_below), (t.label, zi)


@PROPERTY
@given(tableaux(max_q=12), st.lists(st.floats(-1e4, 0.0), min_size=1, max_size=8),
       st.sampled_from(VARIANTS))
def test_scan_rate_is_the_average_dissipation_rate(t, zs, variant):
    # the rate of the analysis curves and that of `eerk rate` are one
    # formula, with the bits of trace(D)/s
    z = np.array(zs)
    try:
        rate = _scan(t, z, variant)[0]
    except SingularDiagonalError:
        return
    trace = np.trace(differentiation_matrix(t, z, variant), axis1=-2, axis2=-1) / t.stages
    assert rate.tobytes() == average_dissipation_rate(t, z, variant).tobytes() == trace.tobytes(), t.label


@PROPERTY
@given(tableaux(max_q=12), st.lists(st.floats(-1e4, -1e-6), min_size=1, max_size=16))
def test_row_sums_are_the_abscissa_equilibria(t, zs):
    rep = verify_row_sums(t, np.array(zs))
    assert rep.passed, (t.label, rep)


@settings(PROPERTY, max_examples=20)
@given(tableaux(max_q=12), st.sampled_from(["analyze", "rate"]), st.booleans(),
       st.floats(-6, 300), st.floats(-6, 300), st.integers(1, 16))
# a 252-character label, too long to name its CSV file
@example(get_method("eerk2", c2=Fraction(1, 10**240)), "rate", False, 0.0, 1.0, 3)
def test_cli_out_is_whole_or_absent(t, command, implicit, lo, hi, n):
    # a run either writes every CSV it names or, refused (exit 2), makes no
    # output directory, also where D(z) leaves the float64 range
    # "+" joins grid chunks, so the exponents are written without it
    grid = f"log:{10.0 ** lo!r}:{10.0 ** hi!r}:{n}".replace("e+", "e")
    argv = [command, "--method", t.label, "--grid", grid, "--implicit", "on" if implicit else "off"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        if code == 2:
            assert err.getvalue().startswith("error: ") and not out.exists(), argv
            return
        assert code == 0, argv
        slug = t.label.translate(str.maketrans(":=,/", "----"))
        curves = f"{slug}_minors.csv" if command == "analyze" else f"{slug}_rate.csv"
        names = {curves, "classification.csv"} if command == "analyze" else {curves}
        assert {f.name for f in out.iterdir()} == names, argv
        rows = (out / curves).read_text().splitlines()
        assert len(rows) == 1 + parse_z_grid(grid).size, argv
