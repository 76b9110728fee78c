"""The argument boundary: every integer, real, rational or group argument is
refused or taken the same way, by one check in cornerlab.errors.

Seeds, grid sizes, BoxInstance.m, group moduli, element and translation
indices, element coordinates, character coefficients, corner_count_naive's
cap and the frequency counts of the Bohr bounds all pass through
errors.check_int, so a float, bool, string or None raises ValidationError
wherever it enters, and numpy integers are accepted.
Restart counts are covered by the cut-norm and descent restart tests.
Densities (minimize_T's alpha, the samples of sweep_and_envelope and
PlaneSet.random's density), the eps of the regularity drivers,
BoxInstance's eps and hyperplane mass, box_approximation's eps0,
GrowthFunction's c and k and the large-spectrum threshold pass through
errors.check_real, which refuses a bool, string or None, takes any real
number as a float, and refuses one outside the argument's interval, an
infinity or NaN included.  Radii, widths and the Bohr bounds' rho, delta and
delta' are read as exact fractions by errors.check_rational, so a bool or an
infinity is refused like any other value that is not a rational number.  Every
public entry that combines operands built over groups raises
GroupMismatchError, through errors.check_same_group, when the groups differ.
box_approximation refuses a target that is neither a BohrSet nor a
(BohrPartition, label) pair with a sequence label.

Array arguments pass through the three array checks of cornerlab.errors, so
a ragged, non-numeric or wrongly shaped array raises ValidationError, never a
numpy error or warning.  Bit arguments (PlaneSet's bit matrix, both integer
scans, refine_with_mask and the two indicator constructors) go through
errors.check_bits and take booleans or the numbers 0 and 1 alone: 0.5, -1,
2, NaN, None or "x" is refused, and 1, 1.0 or True give one result.  Integer
arrays (corner counts, partition labels) go through errors.check_ints, so a
label of 0.5 or NaN is refused, not relabelled.  Real arrays (functions on
G, spectra, views, nu, cut-norm matrices, the regularity inputs, the grid
functional's values, weights and cell masses) go through errors.check_reals:
each is finite, real where it must be, and inside its interval up to its
site's slack, within which the site clips or not as before.
"""

from fractions import Fraction

import numpy as np
import pytest

from cornerlab import (
    BohrPartition,
    BohrSet,
    BoxInstance,
    Character,
    CornerProfile,
    Element,
    GridFunction,
    GroupFunction,
    GroupMismatchError,
    GroupSpec,
    GrowthFunction,
    Partition,
    PlaneSet,
    Spectrum,
    ValidationError,
    bohr_regularize,
    box_approximation,
    convolve,
    convolve_direct,
    corner_count_by_difference,
    corner_count_naive,
    cut_norm_witness,
    dft,
    integer_corner_scan,
    integer_corner_scan_naive,
    large_spectrum,
    minimize_T,
    parse_growth_spec,
    part_absorption_bound,
    pipeline_lower_bound,
    popular_difference,
    sweep_and_envelope,
    translate_containment_bound,
    triple_sum_from_views,
    volume_lower_bound,
    weak_regularity,
    weighted_corner_count,
    weighted_corner_count_direct,
)
from cornerlab import regularity

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
XI = Character(G6, (1,))
F6 = GroupFunction(G6, np.arange(6.0))
# real arguments whose intervals leave out 0.25 (c >= 1, eps0 and the
# threshold are checked before the rest of their call runs)
OTHER_REAL_ARGUMENTS = {
    "GrowthFunction c": lambda v: GrowthFunction("polynomial", v, 1),
    "GrowthFunction k": lambda v: GrowthFunction("polynomial", 2, v),
    "box_approximation eps0": lambda v: box_approximation(
        BohrSet(G6, [XI], QUARTER), G6.element(0), v, EIGHTH),
    "large_spectrum threshold": lambda v: large_spectrum(F6, v),
}
REAL_ARGUMENTS = {**DENSITY_ARGUMENTS, **EPS_AND_MASS_ARGUMENTS, **OTHER_REAL_ARGUMENTS}

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


G4 = GroupSpec([4])
A6 = PlaneSet.random(G6, 0.5, 1)
ONE4 = GroupFunction.constant(G4, 1.0)
GROUP_ARGUMENTS = {
    "Element +": lambda: G6.element(1) + G4.element(1),
    "Character.eval_fraction": lambda: XI.eval_fraction(G4.element(1)),
    "BohrSet frequencies": lambda: BohrSet(G6, [Character(G4, (1,))], QUARTER),
    "BohrPartition frequencies": lambda: BohrPartition(G6, [Character(G4, (1,))], EIGHTH),
    "BohrSet.member": lambda: BohrSet(G6, [XI], QUARTER).member(G4.element(1)),
    "BohrPartition.label_of": lambda: BohrPartition(G6, [XI], EIGHTH).label_of(G4.element(1)),
    "box_approximation z0": lambda: box_approximation(
        BohrSet(G6, [XI], QUARTER), G4.element(0), 0.5, EIGHTH),
    "Spectrum[]": lambda: dft(F6)[Character(G4, (1,))],
    "convolve": lambda: convolve(F6, ONE4),
    "convolve_direct": lambda: convolve_direct(F6, ONE4),
    "popular_difference profile": lambda: popular_difference(
        A6, corner_count_by_difference(PlaneSet.random(G4, 0.5, 1))),
    "weighted_corner_count nu": lambda: weighted_corner_count(A6, ONE4),
    "weighted_corner_count_direct nu": lambda: weighted_corner_count_direct(A6, ONE4),
    "triple_sum_from_views nu": lambda: triple_sum_from_views(
        (A6.bits, A6.bits, A6.bits), G6, ONE4),
    "Partition.common_refinement": lambda: Partition.trivial(G6).common_refinement(
        Partition.trivial(G4)),
    "bohr_regularize functions": lambda: bohr_regularize(
        [GroupFunction.constant(G6, 0.5), GroupFunction.constant(G4, 0.5)],
        GrowthFunction("polynomial", 2, 1)),
    "weak_regularity initial": lambda: weak_regularity(
        [np.zeros((6, 6))], 0.25, G6, initial=Partition.trivial(G4)),
}


PARTITION6 = BohrPartition(G6, [XI], EIGHTH)
# box_approximation's target: a BohrSet, or a (BohrPartition, label) pair
# whose label is a sequence
MALFORMED_TARGETS = {
    "label 5": ((PARTITION6, 5), "part label must be a sequence, got 5"),
    "label None": ((PARTITION6, None), "part label must be a sequence, got None"),
    "bare partition": (PARTITION6, "got BohrPartition"),
    "1-tuple": ((PARTITION6,), "got tuple"),
    "string": ("ab", "got str"),
}


@pytest.mark.parametrize("target, message", MALFORMED_TARGETS.values(), ids=MALFORMED_TARGETS)
def test_box_approximation_refuses_a_malformed_target(target, message):
    with pytest.raises(ValidationError, match=message):
        box_approximation(target, G6.element(0), 0.5, EIGHTH)


@pytest.mark.parametrize("call", GROUP_ARGUMENTS.values(), ids=GROUP_ARGUMENTS)
def test_group_arguments_refuse_operands_on_another_group(call):
    with pytest.raises(GroupMismatchError, match="live on different groups: Z6 vs Z4"):
        call()


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("call", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS)
def test_real_arguments_refuse_values_that_are_not_finite(call, value):
    with pytest.raises(ValidationError, match="must be finite and lie in"):
        call(value)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("minimize_T alpha", 1.5, r"alpha must lie in \[0, 1\], got 1.5"),
        ("sweep_and_envelope sample", -0.5, r"density sample must lie in \[0, 1\], got -0.5"),
        ("PlaneSet.random density", np.float64(2), r"density must lie in \[0, 1\], got 2.0"),
        ("weak_regularity eps", 0, r"eps must lie in \(0, inf\), got 0.0"),
        ("BoxInstance hyperplane_mass", -0.1, r"hyperplane mass must lie in \[0, inf\)"),
        ("GrowthFunction c", 0.5, r"growth coefficient c must lie in \[1, inf\), got 0.5"),
        ("GrowthFunction k", -1, r"growth exponent k must lie in \[0, inf\), got -1.0"),
        ("box_approximation eps0", 1, r"eps0 must lie in \(0, 1\), got 1.0"),
        ("large_spectrum threshold", 0, r"threshold must lie in \(0, inf\), got 0.0"),
    ],
)
def test_real_arguments_refuse_values_outside_their_interval(name, value, message):
    with pytest.raises(ValidationError, match=message):
        REAL_ARGUMENTS[name](value)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("BohrSet radius", 0.75, r"radius must lie in \(0, 1/2\], got 3/4"),
        ("BohrPartition width", 2, r"width must lie in \(0, 1\], got 2"),
        ("volume_lower_bound rho", 0, r"rho must lie in \(0, 1/2\], got 0"),
        ("translate_containment_bound delta", 0, r"delta must lie in \(0, 1\], got 0"),
        ("integer_corner_scan rho", "1/2", r"rho must lie in \(0, 1/4\], got 1/2"),
        ("integer_corner_scan_naive rho", -0.25, r"rho must lie in \(0, 1/4\], got -1/4"),
    ],
)
def test_rational_arguments_refuse_values_outside_their_interval(name, value, message):
    with pytest.raises(ValidationError, match=message):
        RATIONAL_ARGUMENTS[name](value)


def test_growth_parameters_are_stored_as_floats_and_round_trip():
    F = GrowthFunction("polynomial", np.float64(2), np.int64(1))
    assert (type(F.c), type(F.k)) == (float, float)
    assert F.spec_string() == "poly:2.0,1.0"
    assert parse_growth_spec(F.spec_string()) == F


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), Fraction(1, 4)])
@pytest.mark.parametrize("call", EPS_AND_MASS_ARGUMENTS.values(), ids=EPS_AND_MASS_ARGUMENTS)
def test_eps_and_mass_arguments_accept_real_numbers(call, value):
    call(value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
@pytest.mark.parametrize("call", RATIONAL_ARGUMENTS.values(), ids=RATIONAL_ARGUMENTS)
def test_rational_arguments_refuse_infinities(call, value):
    with pytest.raises(ValidationError, match="is not a rational number"):
        call(value)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("call", RATIONAL_ARGUMENTS.values(), ids=RATIONAL_ARGUMENTS)
def test_rational_arguments_refuse_bools(call, value):
    # as with the integer and real checks, True is not read as 1
    with pytest.raises(ValidationError, match="is not a rational number"):
        call(value)


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
def test_uniform_grid_refuses_an_empty_axis(shape):
    # an empty weight vector is not a probability vector: it sums to 0
    with pytest.raises(ValidationError, match=r"weights_\w must sum to 1, got 0.0"):
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


NAN = float("nan")
G1, G2, Z3 = GroupSpec([1]), GroupSpec([2]), GroupSpec([3])
POLY = GrowthFunction("polynomial", 2, 1)


def _grid_with(v):
    """An 8 x 8 bit grid of ones whose first entry is v."""
    return [[v] + [1] * 7] + [[1] * 8] * 7


# bit arguments: each call builds its bit array around the entry v
BIT_ARGUMENTS = {
    "PlaneSet": lambda v: PlaneSet(G2, [[v, 0], [1, 0]]).bits,
    "integer_corner_scan": lambda v: integer_corner_scan(_grid_with(v)),
    "integer_corner_scan_naive": lambda v: integer_corner_scan_naive(_grid_with(v)),
    "Partition.refine_with_mask": lambda v: Partition.trivial(G4).refine_with_mask(
        [v, 0, 1, 0]).labels,
    "GroupFunction.indicator": lambda v: GroupFunction.indicator(G4, [v, 0, 1, 0]).values,
    "GroupFunction.normalized_indicator": lambda v: GroupFunction.normalized_indicator(
        G4, [v, 0, 1, 0]).values,
}


@pytest.mark.parametrize("value", [0.5, -1, 2, NAN, None, "x"])
@pytest.mark.parametrize("call", BIT_ARGUMENTS.values(), ids=BIT_ARGUMENTS)
def test_bit_arguments_refuse_entries_other_than_booleans_0_and_1(call, value):
    with pytest.raises(ValidationError, match=r"must (hold only|be an array of) booleans or"):
        call(value)


@pytest.mark.parametrize("value, same", [(1, True), (1.0, True), (np.int8(1), True),
                                         (0, False), (0.0, False), (np.float32(0), False)])
@pytest.mark.parametrize("call", BIT_ARGUMENTS.values(), ids=BIT_ARGUMENTS)
def test_bit_arguments_read_0_and_1_as_booleans(call, value, same):
    got, want = call(value), call(same)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


A_VIEWS = tuple(np.asarray(v) for v in (A6.bits, A6.bits, A6.bits))
NAN_VIEW = np.where(A6.bits, NAN, 0.0)
HALF_GRID = np.full((2, 2, 2), 0.5)
# the refusals of malformed arrays, the inputs that passed or escaped as a
# numpy error or warning before these checks included
MALFORMED_ARRAYS = {
    "PlaneSet 0.5, NaN and 2": (lambda: PlaneSet(G2, [[0.5, 0], [NAN, 2]]),
                                "bit matrix must hold only booleans or 0 and 1, got 0.5"),
    "PlaneSet string": (lambda: PlaneSet(G1, [["x"]]),
                        r"bit matrix must be an array of booleans or the numbers 0 and 1, got "
                        r"\[\['x'\]\]"),
    "PlaneSet ragged": (lambda: PlaneSet(G2, [[1, 0], [1]]),
                        r"bit matrix must be an array of .*, got \[\[1, 0\], \[1\]\]"),
    "PlaneSet shape": (lambda: PlaneSet(G2, np.ones((2, 3), bool)),
                       r"bit matrix must have shape \(2, 2\), got shape \(2, 3\)"),
    "integer_corner_scan 0.3": (lambda: integer_corner_scan(np.full((8, 8), 0.3)),
                                "bit matrix must hold only booleans or 0 and 1, got 0.3"),
    "integer_corner_scan_naive 0.3": (lambda: integer_corner_scan_naive(np.full((8, 8), 0.3)),
                                      "bit matrix must hold only booleans or 0 and 1, got 0.3"),
    "integer_corner_scan non-square": (lambda: integer_corner_scan(np.ones((3, 4), bool)),
                                       r"bit matrix must have shape \(n, n\), got shape \(3, 4\)"),
    "integer_corner_scan_naive non-square": (
        lambda: integer_corner_scan_naive(np.ones((3, 4), bool)),
        r"bit matrix must have shape \(n, n\), got shape \(3, 4\)"),
    "integer_corner_scan side 1": (lambda: integer_corner_scan(np.ones((1, 1), bool)),
                                   "grid side must be >= 2, got 1"),
    "integer_corner_scan side 0": (lambda: integer_corner_scan(np.ones((0, 0), bool)),
                                   "grid side must be >= 2, got 0"),
    "integer_corner_scan_naive side 1": (lambda: integer_corner_scan_naive(np.ones((1, 1), bool)),
                                         "grid side must be >= 2, got 1"),
    "integer_corner_scan_naive side 0": (lambda: integer_corner_scan_naive(np.ones((0, 0), bool)),
                                         "grid side must be >= 2, got 0"),
    "refine_with_mask 0.5, -1 and NaN": (
        lambda: Partition.trivial(G4).refine_with_mask([0.5, 0, -1, NAN]),
        "mask must hold only booleans or 0 and 1, got 0.5"),
    "refine_with_mask shape": (lambda: Partition.trivial(G4).refine_with_mask([1, 0]),
                               r"mask must have length 4, got shape \(2,\)"),
    "GroupFunction.indicator 0.2 and 7": (lambda: GroupFunction.indicator(Z3, [0.2, 0, 7]),
                                          "mask must hold only booleans or 0 and 1, got 0.2"),
    "GroupFunction.normalized_indicator 0.2 and 7": (
        lambda: GroupFunction.normalized_indicator(Z3, [0.2, 0, 7]),
        "mask must hold only booleans or 0 and 1, got 0.2"),
    "GroupFunction length": (lambda: GroupFunction(G6, np.zeros(5)),
                             r"function values must have length 6, got shape \(5,\)"),
    "Spectrum shape": (lambda: Spectrum(G6, np.zeros((6, 1))),
                       r"spectrum coefficients must have length 6, got shape \(6, 1\)"),
    "GroupFunction ragged": (lambda: GroupFunction(G2, [[1.0], [1.0, 2.0]]),
                             "function values must be an array of numbers, got"),
    "GroupFunction strings": (lambda: GroupFunction(G2, ["a", "b"]),
                              r"function values must be an array of numbers, got \['a', 'b'\]"),
    "Spectrum strings": (lambda: Spectrum(G2, ["a", "b"]),
                         "spectrum coefficients must be an array of numbers"),
    "GridFunction.uniform ragged": (lambda: GridFunction.uniform([[[0.5]], [[0.5, 0.5]]]),
                                    "values must be an array of real numbers, got"),
    "GridFunction.uniform strings": (lambda: GridFunction.uniform([[["a"]]]),
                                     "values must be an array of real numbers"),
    "GridFunction.uniform 2-d": (lambda: GridFunction.uniform(np.zeros((2, 2))),
                                 r"values must have shape \(nx, ny, nz\), got shape \(2, 2\)"),
    "GridFunction values": (lambda: GridFunction(HALF, HALF, HALF, np.full((2, 2, 2), 1.5)),
                            r"values must lie in \[0, 1\], got 1.5"),
    "GridFunction values NaN": (lambda: GridFunction(HALF, HALF, HALF, np.full((2, 2, 2), NAN)),
                                r"values must be finite and lie in \[0, 1\], got nan"),
    "GridFunction values shape": (lambda: GridFunction(HALF, HALF, HALF, np.zeros((2, 2))),
                                  r"values must have shape \(2, 2, 2\), got shape \(2, 2\)"),
    "GridFunction weights 2-d": (lambda: GridFunction(np.full((2, 1), 0.5), HALF, HALF, HALF_GRID),
                                 r"weights_x must have length n, got shape \(2, 1\)"),
    "GridFunction weights negative": (
        lambda: GridFunction(HALF, np.array([1.5, -0.5]), HALF, HALF_GRID),
        r"weights_y must lie in \[0, inf\), got -0.5"),
    "GridFunction weights infinite": (
        lambda: GridFunction(HALF, HALF, np.array([np.inf, 0.5]), HALF_GRID),
        r"weights_z must be finite and lie in \[0, inf\), got inf"),
    "BoxInstance cell masses": (
        lambda: BoxInstance(HALF, HALF, HALF, np.full((2, 2, 2), -0.1), 0.1, 0.25, 1),
        r"cell_masses must lie in \[0, inf\), got -0.1"),
    "BoxInstance cell masses NaN": (
        lambda: BoxInstance(HALF, HALF, HALF, np.full((2, 2, 2), NAN), 0.1, 0.25, 1),
        r"cell_masses must be finite and lie in \[0, inf\), got nan"),
    "triple_sum_from_views shapes": (
        lambda: triple_sum_from_views((*A_VIEWS[:2], A6.bits[:5]), G6, GroupFunction.constant(G6, 1)),
        r"view 2 must have shape \(6, 6\), got shape \(5, 6\)"),
    "triple_sum_from_views NaN": (
        lambda: triple_sum_from_views((NAN_VIEW, *A_VIEWS[1:]), G6, GroupFunction.constant(G6, 1)),
        "view 0 must be finite, got nan"),
    "triple_sum_from_views complex nu": (
        lambda: triple_sum_from_views(A_VIEWS, G6, GroupFunction(G6, np.full(6, 1 + 1j))),
        "nu must be an array of real numbers"),
    "cut_norm_witness complex": (lambda: cut_norm_witness(np.full((4, 4), 1j)),
                                 "cut-norm matrix must be an array of real numbers"),
    "cut_norm_witness NaN": (lambda: cut_norm_witness(np.full((4, 4), NAN)),
                             "cut-norm matrix must be finite, got nan"),
    "cut_norm_witness non-square": (lambda: cut_norm_witness(np.zeros((3, 4))),
                                    r"cut-norm matrix must have shape \(n, n\), got shape \(3, 4\)"),
    "Partition labels 0.5, 1.5 and NaN": (lambda: Partition(G4, [0.5, 1.5, NAN, 0]),
                                          "labels must be an array of integers, got"),
    "Partition labels bools": (lambda: Partition(G2, [True, False]),
                               "labels must be an array of integers, got"),
    "Partition labels shape": (lambda: Partition(G4, [0, 1]),
                               r"labels must have length 4, got shape \(2,\)"),
    "Partition.project_line NaN": (lambda: Partition.trivial(G4).project_line([0, NAN, 0, 0]),
                                   "line function must be finite, got nan"),
    "Partition.project_plane shape": (lambda: Partition.trivial(G4).project_plane(np.zeros(4)),
                                      r"plane function must have shape \(4, 4\), got shape \(4,\)"),
    "CornerProfile negative": (lambda: CornerProfile(Z3, [3, -1, 0]),
                               "corner counts must be >= 0, got -1"),
    "weak_regularity 1.5": (lambda: weak_regularity([np.full((6, 6), 1.5)], 0.25, G6),
                            r"function 0 must lie in \[0, 1\], got 1.5"),
    "bohr_regularize 1.5": (lambda: bohr_regularize([GroupFunction.constant(G6, 1.5)], POLY),
                            r"function 0 must lie in \[0, 1\], got 1.5"),
    "bohr_regularize complex": (
        lambda: bohr_regularize([GroupFunction(G6, np.full(6, 0.5 + 0.5j))], POLY),
        "function 0 must be an array of real numbers"),
}


@pytest.mark.parametrize("call, message", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS)
def test_malformed_arrays_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def _plane_inputs(v):
    f = np.full((6, 6), 0.5)
    f[0, 0] = v
    return regularity._check_plane_inputs([f], G6, regularity._WEAK_CAP)[0]


def _bohr_inputs(v):
    (I0, I1, I2), = bohr_regularize([GroupFunction(G6, [v, 0.5, 0, 1, 0.5, 0])], POLY).components
    return I0.values + I1.values + I2.values  # the input, up to rounding


# each site's slack and clip rule: (stored array of the entry v, its
# interval's end that v crosses, the site's slack, whether it clips)
SLACKS = {
    "GridFunction values": (
        lambda v: GridFunction(HALF, HALF, HALF, np.full((2, 2, 2), v)).values, 1.0, 1e-9, True),
    "GridFunction weights": (
        lambda v: GridFunction(np.array([1 - v, v]), HALF, HALF, HALF_GRID).weights_x, 0.0, 1e-15,
        True),
    "BoxInstance cell masses": (
        lambda v: BoxInstance(HALF, HALF, HALF, np.full((2, 2, 2), v), 0.1, 0.25, 1).cell_masses,
        0.0, 1e-15, True),
    "regularity plane inputs": (_plane_inputs, 1.0, 1e-12, True),
    "bohr_regularize inputs": (_bohr_inputs, 1.0, 1e-12, False),
}


@pytest.mark.parametrize("stored, end, slack, clips", SLACKS.values(), ids=SLACKS)
def test_array_sites_keep_their_slack_and_clip_rule(stored, end, slack, clips):
    outward = 1.0 if end else -1.0
    inside = stored(end + outward * slack / 2)
    extreme = inside.max() if end else inside.min()
    assert (extreme == end) if clips else (outward * (extreme - end) > slack / 4)
    with pytest.raises(ValidationError, match="must lie in"):
        stored(end + outward * slack * 2)
