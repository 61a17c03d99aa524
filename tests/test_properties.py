"""Property tests of the tableau catalog, derandomized and bounded.

Abscissas are drawn as exact fractions ``p/q`` in (0, 1]; ``eerk32`` is
drawn away from its three degenerate choices, which ``get_method`` refuses.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eerk.dissipation import default_z_grid
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
@given(tableaux(max_q=12), st.lists(st.floats(-1e4, -1e-6), min_size=1, max_size=16))
def test_row_sums_are_the_abscissa_equilibria(t, zs):
    rep = verify_row_sums(t, np.array(zs))
    assert rep.passed, (t.label, rep)
