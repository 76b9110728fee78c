"""The number boundary: every integer or density argument is refused or taken the same way.

Seeds, grid sizes, BoxInstance.m, group moduli, element and translation
indices, element coordinates, character coefficients, corner_count_naive's
cap and the frequency counts of the Bohr bounds all pass through
errors.check_int, so a float, bool, string or None raises ValidationError
wherever it enters, and numpy integers are accepted.
Restart counts are covered by the cut-norm and descent restart tests.
Densities (minimize_T's alpha, the samples of sweep_and_envelope and
PlaneSet.random's density), the eps of the regularity drivers and
BoxInstance's eps and hyperplane mass pass through errors.check_real, which
refuses a bool, string or None and takes any real number.  Radii, widths
and the Bohr bounds' rho, delta and delta' are read as exact fractions, so
an infinity is refused like any other value that is not a rational number.
"""

from fractions import Fraction

import numpy as np
import pytest

from cornerlab import (
    BohrPartition,
    BohrSet,
    BoxInstance,
    Character,
    Element,
    GridFunction,
    GroupSpec,
    PlaneSet,
    ValidationError,
    box_approximation,
    corner_count_naive,
    cut_norm_witness,
    integer_corner_scan,
    integer_corner_scan_naive,
    minimize_T,
    part_absorption_bound,
    pipeline_lower_bound,
    sweep_and_envelope,
    translate_containment_bound,
    volume_lower_bound,
    weak_regularity,
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

# real arguments like the densities, though 0 is out of range for eps
EPS_AND_MASS_ARGUMENTS = {
    "weak_regularity eps": lambda v: weak_regularity([np.zeros((6, 6))], v, G6),
    "pipeline_lower_bound eps": lambda v: pipeline_lower_bound(PlaneSet.random(G6, 0.5, 1), eps=v),
    "BoxInstance hyperplane_mass": lambda v: BoxInstance(HALF, HALF, HALF, np.zeros((2, 2, 2)), v,
                                                         0.25, 1),
    "BoxInstance eps": lambda v: BoxInstance(HALF, HALF, HALF, np.zeros((2, 2, 2)), 0.1, v, 1),
}
REAL_ARGUMENTS = {**DENSITY_ARGUMENTS, **EPS_AND_MASS_ARGUMENTS}

XI = Character(G6, (1,))
RATIONAL_ARGUMENTS = {
    "BohrSet radius": lambda v: BohrSet(G6, [], v),
    "BohrPartition width": lambda v: BohrPartition(G6, [XI], v),
    "volume_lower_bound rho": lambda v: volume_lower_bound(1, v),
    "translate_containment_bound rho": lambda v: translate_containment_bound(1, v, EIGHTH),
    "translate_containment_bound delta": lambda v: translate_containment_bound(1, QUARTER, v),
    "part_absorption_bound rho": lambda v: part_absorption_bound(1, v, EIGHTH),
    "part_absorption_bound delta_prime": lambda v: part_absorption_bound(1, QUARTER, v),
    "integer_corner_scan rho": lambda v: integer_corner_scan(np.ones((8, 8), bool), rho=v),
    "integer_corner_scan_naive rho": lambda v: integer_corner_scan_naive(np.ones((8, 8), bool),
                                                                         rho=v),
    "box_approximation delta_prime": lambda v: box_approximation(
        BohrSet(G6, [XI], QUARTER), G6.element(0), 0.5, v),
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
@pytest.mark.parametrize("call", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS)
def test_density_arguments_refuse_non_numbers(call, value):
    with pytest.raises(ValidationError, match="must be a real number"):
        call(value)


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), Fraction(1, 4)])
@pytest.mark.parametrize("call", EPS_AND_MASS_ARGUMENTS.values(), ids=EPS_AND_MASS_ARGUMENTS)
def test_eps_and_mass_arguments_accept_real_numbers(call, value):
    call(value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
@pytest.mark.parametrize("call", RATIONAL_ARGUMENTS.values(), ids=RATIONAL_ARGUMENTS)
def test_rational_arguments_refuse_infinities(call, value):
    with pytest.raises(ValidationError, match="is not a rational number"):
        call(value)


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
def test_uniform_grid_refuses_an_empty_axis(shape):
    with pytest.raises(ValidationError, match="nonempty"):
        GridFunction.uniform(np.zeros(shape))


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.25), Fraction(1, 2), 0, 1])
@pytest.mark.parametrize("call", DENSITY_ARGUMENTS.values(), ids=DENSITY_ARGUMENTS)
def test_density_arguments_accept_real_numbers(call, value):
    call(value)


@pytest.mark.parametrize("value, reduced", [(-1, 5), (13, 1), (np.int64(-7), 5)])
def test_coordinates_and_coefficients_reduce_to_python_ints(value, reduced):
    for stored in (Element(G6, (value,)).coords, Character(G6, (value,)).coeffs):
        assert stored == (reduced,) and type(stored[0]) is int
    assert Character(G6, (value,)).eval_fraction(Element(G6, (1,))) == Fraction(reduced, 6)
