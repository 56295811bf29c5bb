"""Index cone: layer enumeration, decompositions, quadratic invariants, and
the reflection iota with its orbit tables."""
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsiegel.exactnum import is_fundamental_discriminant
from qsiegel.lattice import (ZERO, decompositions, enumerate_cone, grade, index_key,
                             is_positive, layer, layer_positions, mirror, norm_m,
                             orbit_layer, position_count, positions, quad_invariants)

# number of positive indices at each grade x = 1 .. 16
LAYER_SIZES = [0, 2, 4, 4, 10, 14, 16, 20, 30, 37, 40, 50, 58, 70, 74, 90]


def layer_brute(x):
    """Scan the box |y|, |z| <= 2x, which provably contains the layer."""
    out = [(x, y, z)
           for y in range(-2 * x, 2 * x + 1)
           for z in range(-2 * x, 2 * x + 1)
           if is_positive((x, y, z))]
    return sorted(out, key=index_key)


def test_layer_matches_brute_force():
    for x in range(1, 11):
        assert list(layer(x)) == layer_brute(x)


def test_layer_sizes():
    assert [len(layer(x)) for x in range(1, 17)] == LAYER_SIZES


def test_cone_sizes():
    assert len(enumerate_cone(12)) == 227
    assert len(enumerate_cone(16)) == 519


def test_cone_is_sorted_and_positive():
    cone = enumerate_cone(10)
    assert list(cone) == sorted(cone, key=index_key)
    assert all(is_positive(e) for e in cone)
    assert all(1 <= grade(e) <= 10 for e in cone)


def test_positions_put_the_origin_first_and_agree_with_the_layers():
    assert positions(0) == (ZERO,) and position_count(-1) == 0
    for X in range(13):
        assert positions(X) == (ZERO,) + enumerate_cone(X)
        assert position_count(X) == len(positions(X))
        assert positions(X) == positions(X + 1)[:position_count(X)]
        assert all(positions(X)[n] == eta for eta, n in layer_positions(X).items())


def test_norm_examples():
    assert norm_m((2, 1, -1)) == 3
    assert norm_m((2, 0, -1)) == 4
    assert norm_m((5, 1, -2)) == 24
    assert norm_m(ZERO) == 0


def test_decompositions_examples():
    # only the two trivial splittings below grade 4
    assert decompositions((2, 1, -1)) == (((0, 0, 0), (2, 1, -1)),
                                          ((2, 1, -1), (0, 0, 0)))
    for eta in layer(4):
        pairs = decompositions(eta)
        nontrivial = [p for p in pairs if ZERO not in p]
        assert all(a[0] == 2 and b[0] == 2 for a, b in nontrivial)


def decompositions_brute(eta):
    parts = [ZERO] + [e for x in range(1, eta[0] + 1) for e in layer(x)]
    out = []
    for a in parts:
        b = (eta[0] - a[0], eta[1] - a[1], eta[2] - a[2])
        if b == ZERO or is_positive(b):
            out.append((a, b))
    return sorted(out)


@pytest.mark.parametrize("x", [2, 4, 5, 6, 7, 8])
def test_decompositions_against_brute_force(x):
    for eta in layer(x):
        assert sorted(decompositions(eta)) == decompositions_brute(eta)


cone6 = st.sampled_from(enumerate_cone(6))


@given(cone6, cone6)
def test_cone_closed_under_addition(e1, e2):
    s = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
    assert is_positive(s)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(0, 9))
def test_norm_scales_quadratically(x, y, z, t):
    assert norm_m((t * x, t * y, t * z)) == t * t * norm_m((x, y, z))


@given(cone6)
@settings(max_examples=40)
def test_decomposition_parts_sum_and_mirror(eta):
    pairs = decompositions(eta)
    seen = set(pairs)
    for a, b in pairs:
        assert (a[0] + b[0], a[1] + b[1], a[2] + b[2]) == eta
        assert a == ZERO or is_positive(a)
        assert b == ZERO or is_positive(b)
        assert (b, a) in seen


def test_quad_invariants_examples():
    assert quad_invariants((2, 1, -1)) == (1, -3, 1)
    assert quad_invariants((4, 0, -2)) == (2, -4, 1)
    assert quad_invariants((8, 1, -4)) == (1, -3, 5)


def test_quad_invariants_consistency():
    for eta in enumerate_cone(12):
        a, d, f = quad_invariants(eta)
        assert a == gcd(gcd(abs(eta[0]), abs(eta[1])), abs(eta[2]))
        assert is_fundamental_discriminant(d)
        assert d * f * f * a * a == -norm_m(eta)


def test_quad_invariants_rejects_non_positive():
    with pytest.raises(ValueError):
        quad_invariants(ZERO)
    with pytest.raises(ValueError):
        quad_invariants((1, 0, 0))


# The reflection iota(x, y, z) = (x, y, -x - z) and its orbit table.
ORBIT_GRADE = 30
DECOMPOSITION_GRADE = 24


def test_mirror_is_an_involution_keeping_grade_and_norm():
    idx = positions(ORBIT_GRADE)
    mir = mirror(ORBIT_GRADE)
    assert len(mir) == len(idx) == 3260
    assert all(mir[m] == n for n, m in enumerate(mir))
    for eta, m in zip(idx, mir):
        x, y, z = eta
        assert idx[m] == (x, y, -x - z)
        assert grade(idx[m]) == grade(eta) and norm_m(idx[m]) == norm_m(eta)
    assert mirror(12) == mir[:position_count(12)]


def test_orbit_layers_partition_the_convolution_pairs():
    # every decomposition of every target is a stored pair or the image of
    # one, exactly once; a fixed pair is its own image and counts once
    idx = positions(DECOMPOSITION_GRADE)
    mir = mirror(DECOMPOSITION_GRADE)
    for x in range(DECOMPOSITION_GRADE + 1):
        moved, fixed = orbit_layer(x)
        found = {}
        for t, m, A, B in moved:
            assert t < m == mir[t]
            found[t] = list(zip(A, B))
            found[m] = [(mir[i], mir[j]) for i, j in zip(A, B)]
        for t, A, B, A2, B2 in fixed:
            assert mir[t] == t
            fix, rep = list(zip(A, B)), list(zip(A2, B2))
            assert all(mir[i] == i and mir[j] == j for i, j in fix)
            assert all(i < mir[i] for i, _ in rep)
            found[t] = fix + rep + [(mir[i], mir[j]) for i, j in rep]
        assert sorted(found) == list(range(position_count(x - 1), position_count(x)))
        for t, pairs in found.items():
            assert all(grade(idx[i]) + grade(idx[j]) == x for i, j in pairs)
            want = [(idx[i], idx[j]) for i, j in pairs]
            assert sorted(want) == sorted(decompositions(idx[t]))


def test_orbit_layers_halve_the_convolution_pairs():
    # 547034 ordered pairs (decompositions) to grade 30, about half stored
    stored = 0
    for x in range(ORBIT_GRADE + 1):
        moved, fixed = orbit_layer(x)
        stored += sum(len(A) for _, _, A, _ in moved)
        stored += sum(len(A) + len(A2) for _, A, _, A2, _ in fixed)
    assert stored == 278356
