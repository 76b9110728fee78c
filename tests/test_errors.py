"""The number boundary: every integer or density argument is refused or taken the same way.

Seeds, grid sizes, BoxInstance.m, group moduli, element and translation
indices, element coordinates, character coefficients, corner_count_naive's
cap and the frequency counts of the Bohr bounds all pass through
errors.check_int, so a float, bool, string or None raises ValidationError
wherever it enters, and numpy integers are accepted.
Restart counts are covered by the cut-norm and descent restart tests.
Densities (minimize_T's alpha, the samples of sweep_and_envelope and
PlaneSet.random's density) pass through errors.check_real, which refuses a
bool, string or None and takes any real number.
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
    corner_count_naive,
    cut_norm_witness,
    minimize_T,
    part_absorption_bound,
    sweep_and_envelope,
    translate_containment_bound,
    volume_lower_bound,
)

G6 = GroupSpec([6])
G3 = GroupSpec([3])  # order 3, so the numpy-integer test's cap of 3 admits it
QUARTER, EIGHTH = Fraction(1, 4), Fraction(1, 8)
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
    "corner_count_naive cap": lambda v: corner_count_naive(PlaneSet.random(G3, 0.5, 1), v),
    "volume_lower_bound s": lambda v: volume_lower_bound(v, QUARTER),
    "translate_containment_bound s": lambda v: translate_containment_bound(v, QUARTER, EIGHTH),
    "part_absorption_bound s": lambda v: part_absorption_bound(v, QUARTER, EIGHTH),
}


DENSITY_ARGUMENTS = {
    "minimize_T alpha": lambda v: minimize_T(v, 3, restarts=2),
    "sweep_and_envelope sample": lambda v: sweep_and_envelope([v], 3, restarts=2),
    "PlaneSet.random density": lambda v: PlaneSet.random(GroupSpec([4]), v, 1),
}


@pytest.mark.parametrize("value", [2.5, True, "3", None])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_non_integers(call, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS)
def test_integer_arguments_accept_numpy_integers(call):
    call(np.int64(3))


@pytest.mark.parametrize(
    "name, least",
    [
        ("corner_count_naive cap", 1),
        ("volume_lower_bound s", 0),
        ("translate_containment_bound s", 0),
        ("part_absorption_bound s", 0),
    ],
)
def test_integer_arguments_refuse_values_below_their_least(name, least):
    with pytest.raises(ValidationError, match=f"must be >= {least}"):
        INTEGER_ARGUMENTS[name](least - 1)


@pytest.mark.parametrize("value", ["0.5", "a", True, False, None])
@pytest.mark.parametrize("call", DENSITY_ARGUMENTS.values(), ids=DENSITY_ARGUMENTS)
def test_density_arguments_refuse_non_numbers(call, value):
    with pytest.raises(ValidationError, match="must be a real number"):
        call(value)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.25), Fraction(1, 2), 0, 1])
@pytest.mark.parametrize("call", DENSITY_ARGUMENTS.values(), ids=DENSITY_ARGUMENTS)
def test_density_arguments_accept_real_numbers(call, value):
    call(value)


@pytest.mark.parametrize("value, reduced", [(-1, 5), (13, 1), (np.int64(-7), 5)])
def test_coordinates_and_coefficients_reduce_to_python_ints(value, reduced):
    for stored in (Element(G6, (value,)).coords, Character(G6, (value,)).coeffs):
        assert stored == (reduced,) and type(stored[0]) is int
    assert Character(G6, (value,)).eval_fraction(Element(G6, (1,))) == Fraction(reduced, 6)
