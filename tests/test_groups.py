"""Group enumeration, element arithmetic, and exact character evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerlab import (
    CapExceededError,
    Character,
    Element,
    GroupSpec,
    ValidationError,
    parse_group_spec,
    torus_norm,
    torus_norm_fraction,
)
from cornerlab import groups


def test_parse_group_spec_formats():
    assert parse_group_spec("Z12").moduli == (12,)
    assert parse_group_spec("z2 X z3 x Z5").moduli == (2, 3, 5)
    assert parse_group_spec(" Z4xZ4 ").moduli == (4, 4)


@pytest.mark.parametrize("bad", ["", "Z0", "Z-3", "Q8", "Z2x", "2x3", "Z2+Z3"])
def test_parse_group_spec_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_group_spec(bad)


def test_parse_group_spec_refuses_a_factor_past_the_integer_digit_limit():
    # int() reads at most 4300 digits and raises a plain ValueError past them
    with pytest.raises(ValidationError, match="group factor of 5000 digits is too long"):
        parse_group_spec("Z" + "9" * 5000)


def test_enumeration_order_is_mixed_radix_last_fastest():
    G = parse_group_spec("Z2xZ2")
    assert [e.coords for e in G.enumerate()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    G3 = parse_group_spec("Z3")
    assert [e.coords for e in G3.enumerate()] == [(0,), (1,), (2,)]


def test_enumeration_is_a_bijection():
    G = parse_group_spec("Z6xZ10")
    elems = G.enumerate()
    assert len(elems) == 60
    assert len({e.coords for e in elems}) == 60
    for i, e in enumerate(elems):
        assert e.index == i
        assert G.element(i) == e


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(groups, "ENUMERATION_CAP", 59)
    G = parse_group_spec("Z6xZ10")
    with pytest.raises(CapExceededError):
        G.enumerate()


def is_zero(x):
    return all(c == 0 for c in x.coords)


def is_trivial(xi):
    return all(a == 0 for a in xi.coeffs)


def test_element_arithmetic_mod_moduli():
    G = parse_group_spec("Z4xZ6")
    x = Element(G, (3, 5))
    y = Element(G, (2, 4))
    assert (x + y).coords == (1, 3)
    assert (-x).coords == (1, 1)
    assert (x - y).coords == (1, 1)
    assert is_zero(x - x)


def test_permutations_match_element_arithmetic():
    G = parse_group_spec("Z3xZ4")
    n = G.order
    neg = G.negation_permutation()
    for d in range(n):
        perm = G.translate_permutation(d)
        delta = G.element(d)
        for i in range(n):
            assert perm[i] == (G.element(i) + delta).index
    for i in range(n):
        assert neg[i] == (-G.element(i)).index


@pytest.mark.parametrize("spec", ["Z7", "Z3xZ4", "Z1xZ4xZ2", "Z2xZ3xZ4", "Z4xZ4", "Z16xZ48",
                                  "Z8xZ8xZ8", "x".join(["Z2"] * 10), "x".join(["Z3"] * 6),
                                  "Z4096"])
def test_translate_permutation_is_a_fresh_writable_array(spec):
    G = parse_group_spec(spec)
    coords = G.coords_matrix()
    moduli = np.asarray(G.moduli)
    if G.order <= 64:
        ds = range(G.order)
    else:
        draws = np.random.default_rng(7).integers(0, G.order, size=16).tolist()
        ds = [0, 1, G.order - 1, *draws]
    # add_indices with one operand fixed, and coordinate arithmetic
    for d in ds:
        perm = G.translate_permutation(d)
        assert np.array_equal(perm, G.index_of_coords((coords + coords[d]) % moduli))
        assert np.array_equal(perm, G.add_indices(np.arange(G.order), d))
    d = G.order - 1
    perm = G.translate_permutation(d)
    expected = G.add_indices(np.arange(G.order), d)
    assert np.array_equal(perm, expected)
    assert perm.flags.writeable
    perm[:] = -1
    assert np.array_equal(G.translate_permutation(d), expected)


@pytest.mark.parametrize("spec", ["Z7", "Z1xZ5", "Z2xZ1xZ3", "Z4xZ4"])
def test_add_indices_is_int64_with_the_broadcast_shape(spec):
    G = parse_group_spec(spec)
    idx = np.arange(G.order)
    for a, b in [(idx[:, None], idx), (idx, idx[::-1]), (idx[:2, None, None], idx[None, :3]),
                 (3 % G.order, idx), (idx[:, None], np.int64(G.order - 1))]:
        out = G.add_indices(a, b)
        assert out.dtype == np.int64
        assert out.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
        want = [(G.element(int(x)) + G.element(int(y))).index
                for x, y in zip(*(v.ravel() for v in np.broadcast_arrays(a, b)))]
        assert out.ravel().tolist() == want
    last = G.order - 1
    scalar = G.add_indices(last, last)
    assert scalar.dtype == np.int64 and scalar.shape == ()
    assert int(scalar) == (G.element(last) + G.element(last)).index


@pytest.mark.parametrize("spec, bad", [("Z3xZ4", 12), ("Z3xZ4", 23), ("Z7", 7)])
def test_add_indices_rejects_an_index_past_the_group(spec, bad):
    # the window tables run past |G|, so reading them raw would wrap bad
    G = parse_group_spec(spec)
    for a, b in [(bad, 0), (0, bad), (np.array([0, bad]), 1), (np.arange(G.order), [bad])]:
        with pytest.raises(IndexError):
            G.add_indices(a, b)


def test_cached_window_tables_reject_writes():
    G = parse_group_spec("Z3xZ4")
    G.translate_permutation(5)
    for window, head in G._windows:
        for cached in (window, head):
            with pytest.raises(ValueError):
                cached[0] = 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=3))
def test_parse_group_spec_round_trips_spec_string(moduli):
    G = GroupSpec(moduli)
    assert parse_group_spec(G.spec_string()) == G
    assert parse_group_spec(G.spec_string().lower()).moduli == G.moduli


@st.composite
def group_and_indices(draw):
    """A cyclic or product group (factors of order 1 allowed) and index samples."""
    G = GroupSpec(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    index = st.integers(0, G.order - 1)
    a = draw(st.lists(index, min_size=1, max_size=6))
    b = draw(st.lists(index, min_size=1, max_size=6))
    return G, a, b


@settings(max_examples=150, deadline=None)
@given(group_and_indices())
def test_index_law_matches_element_arithmetic(case):
    G, a, b = case
    table = G.add_indices(np.array(a)[:, None], np.array(b)[None, :])
    assert table.tolist() == [[(G.element(x) + G.element(y)).index for y in b] for x in a]
    neg = G.negation_permutation()
    assert [int(neg[x]) for x in a] == [(-G.element(x)).index for x in a]
    for d in a:
        perm = G.translate_permutation(d)
        assert np.array_equal(np.sort(perm), np.arange(G.order))
        assert [int(perm[y]) for y in b] == [(G.element(y) + G.element(d)).index for y in b]
    for cached in (neg, G.coords_matrix()):
        with pytest.raises(ValueError):
            cached[0] = 0


def test_trivial_character_evaluates_to_zero():
    G = parse_group_spec("Z5xZ7")
    xi = G.characters()[0]
    assert is_trivial(xi)
    for x in G.enumerate():
        assert xi.eval_fraction(x) == 0


def test_character_known_value():
    # a = (1, 1) on Z2 x Z3 at x = (1, 2): 1/2 + 2/3 = 7/6, reduced mod 1.
    G = parse_group_spec("Z2xZ3")
    xi = Character(G, (1, 1))
    assert xi.eval_fraction(Element(G, (1, 2))) == Fraction(1, 6)


def test_character_additivity_exact():
    rng = np.random.default_rng(7)
    for spec in ("Z8", "Z2xZ3xZ5", "Z4xZ6"):
        G = parse_group_spec(spec)
        chars = G.characters()
        for _ in range(25):
            xi = chars[rng.integers(len(chars))]
            x = G.element(int(rng.integers(G.order)))
            y = G.element(int(rng.integers(G.order)))
            lhs = xi.eval_fraction(x + y)
            rhs = (xi.eval_fraction(x) + xi.eval_fraction(y)) % 1
            assert lhs == rhs


def test_character_orthogonality():
    rng = np.random.default_rng(11)
    for spec in ("Z30", "Z6xZ10", "Z9xZ9"):
        G = parse_group_spec(spec)
        chars = G.characters()
        for _ in range(10):
            xi = chars[rng.integers(len(chars))]
            eta = chars[rng.integers(len(chars))]
            total = 0.0 + 0.0j
            for x in G.enumerate():
                phase = float(xi.eval_fraction(x) - eta.eval_fraction(x))
                total += np.exp(2j * np.pi * phase)
            total /= G.order
            expected = 1.0 if xi.coeffs == eta.coeffs else 0.0
            assert abs(total - expected) <= 1e-10


def test_residue_vectors_are_exact_lcm_multiples():
    G = parse_group_spec("Z4xZ6")
    L = G.exponent_lcm
    assert L == 12
    for xi in G.characters():
        res = xi.residue_vector()
        for x in G.enumerate():
            assert Fraction(int(res[x.index]), L) == xi.eval_fraction(x)


def test_torus_norm_values():
    assert torus_norm(0.75) == 0.25
    assert torus_norm(0.5) == 0.5
    assert abs(torus_norm(3.1) - 0.1) <= 1e-12


def test_torus_norm_symmetry_and_periodicity():
    rng = np.random.default_rng(3)
    for t in rng.uniform(-5, 5, size=50):
        v = torus_norm(float(t))
        assert 0 <= v <= 0.5
        assert abs(torus_norm(float(-t)) - v) <= 1e-12
        assert abs(torus_norm(float(t + 1)) - v) <= 1e-12


def test_torus_norm_fraction_exact():
    assert torus_norm_fraction(Fraction(7, 12)) == Fraction(5, 12)
    assert torus_norm_fraction(Fraction(-1, 5)) == Fraction(1, 5)
    assert torus_norm_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert torus_norm_fraction(Fraction(13, 6)) == Fraction(1, 6)


def test_cross_group_operations_rejected():
    a = Element(parse_group_spec("Z4"), (1,))
    b = Element(parse_group_spec("Z5"), (1,))
    with pytest.raises(ValidationError):
        _ = a + b


@pytest.mark.parametrize("build, message", [
    (lambda: GroupSpec([]), "group needs at least one cyclic factor"),
    (lambda: GroupSpec([2**16, 2**16 + 1]),
     f"group order {2**32 + 2**16} exceeds the supported maximum {2**32}"),
    (lambda: GroupSpec([6]).element(6), "index 6 out of range for group of order 6"),
    (lambda: GroupSpec([2, 3]).translate_permutation(6),
     "index 6 out of range for group of order 6"),
    (lambda: Element(GroupSpec([2, 3]), (1,)), "element has 1 coordinates, group has rank 2"),
    (lambda: Character(GroupSpec([6]), (1, 2)), "character has 2 coefficients, group has rank 1"),
])
def test_malformed_groups_elements_and_characters_are_refused(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
