"""The integer boundary: every integer argument is refused or taken the same way.

Seeds, grid sizes, BoxInstance.m, group moduli, element and translation
indices, element coordinates and character coefficients all pass through
errors.check_int, so a float, bool, string or None raises ValidationError
wherever it enters, and numpy integers are accepted.
Restart counts are covered by the cut-norm and descent restart tests.
"""

from fractions import Fraction

import numpy as np
import pytest

from cornerlab import (
    BoxInstance,
    Character,
    Element,
    GridFunction,
    GroupSpec,
    PlaneSet,
    ValidationError,
    cut_norm_witness,
    minimize_T,
)

G6 = GroupSpec([6])
M20 = np.full((20, 20), 0.5)  # above the exact cut-norm size, so the seed is used
HALF = np.full(2, 0.5)

INTEGER_ARGUMENTS = {
    "PlaneSet.random seed": lambda v: PlaneSet.random(G6, 0.5, v),
    "minimize_T seed": lambda v: minimize_T(0.5, 3, restarts=2, seed=v),
    "cut_norm_witness seed": lambda v: cut_norm_witness(M20, restarts=2, seed=v),
    "GridFunction.constant n": lambda v: GridFunction.constant(v, 0.5),
    "BoxInstance m": lambda v: BoxInstance(HALF, HALF, HALF, np.zeros((2, 2, 2)), 0.1, 0.25, v),
    "GroupSpec moduli": lambda v: GroupSpec([2, v]),
    "GroupSpec.element": lambda v: G6.element(v),
    "GroupSpec.translate_permutation": lambda v: G6.translate_permutation(v),
    "Element coordinates": lambda v: Element(G6, (v,)),
    "Character coefficients": lambda v: Character(GroupSpec([4, 6]), (1, v)),
}


@pytest.mark.parametrize("value", [2.5, True, "3", None])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_non_integers(call, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_accept_numpy_integers(call):
    call(np.int64(3))



@pytest.mark.parametrize("value, reduced", [(-1, 5), (13, 1), (np.int64(-7), 5)])
def test_coordinates_and_coefficients_reduce_to_python_ints(value, reduced):
    for stored in (Element(G6, (value,)).coords, Character(G6, (value,)).coeffs):
        assert stored == (reduced,) and type(stored[0]) is int
    assert Character(G6, (value,)).eval_fraction(Element(G6, (1,))) == Fraction(reduced, 6)
