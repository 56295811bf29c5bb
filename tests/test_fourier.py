"""Series arithmetic: products against a brute-force convolution, ring axioms,
formal square roots, exact division, and the rational linear algebra."""
from fractions import Fraction as Fr
from math import gcd
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qsiegel import fourier
from qsiegel.eisenstein import EisensteinParams, eisenstein_series
from qsiegel.fourier import (FourierSeries, divide_exact, linear_combine,
                             multiply, one, rank_of_span,
                             relation_nullspace, sqrt_monic)
from qsiegel.lattice import (ZERO, enumerate_cone, grade, is_positive, mirror,
                             position_count)
from qsiegel.ring import CHI5A_LEAD, CHI5B_LEAD, GeneratorSet


def mult_brute(f, g):
    """Oracle: double loop over the supports, keep grades <= min prec."""
    X = min(f.prec, g.prec)
    out = {}
    for a, va in f.coeffs.items():
        for b, vb in g.coeffs.items():
            e = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if grade(e) <= X and (e == ZERO or is_positive(e)):
                out[e] = out.get(e, 0) + va * vb
    return FourierSeries(f.weight + g.weight, X, out)


def test_multiply_matches_brute_force():
    e2 = eisenstein_series(EisensteinParams(2), 6)
    e4 = eisenstein_series(EisensteinParams(4), 6)
    assert multiply(e2, e2) == mult_brute(e2, e2)
    assert multiply(e2, e4) == mult_brute(e2, e4)
    assert multiply(e4, e4) == mult_brute(e4, e4)


def deep_series(rng, weight, X, parity, bits):
    """A series at grade X with random entries of up to `bits` bits over a
    random den: iota-even for parity 1, iota-odd for -1, neither for 0."""
    mir = mirror(X)
    vec = [rng.getrandbits(bits) - (1 << bits - 1) for _ in mir]
    if parity:  # each orbit's later entry from its first; odd ones 0 on fixed points
        vec = [vec[n] if n < m else parity * vec[m] if n > m else vec[n] * (parity > 0)
               for n, m in enumerate(mir)]
    return FourierSeries.from_vector(weight, X, rng.randrange(1, 1 << 20), vec)


def test_multiply_commutes_with_the_image_map_at_deep_grades():
    parities = []

    # the examples pair every parity with another
    @example(30, 1, -1, 300, 0, (3, 5))
    @example(24, -1, 0, 300, 1, (7, 2))
    @example(22, 0, 1, 300, 2, (oracles.IMAGE_PRIME - 1, 11))
    @given(st.integers(20, 30), st.sampled_from((1, -1, 0)), st.sampled_from((1, -1, 0)),
           st.integers(200, 300), st.integers(0, 2 ** 64),
           st.tuples(*[st.integers(2, oracles.IMAGE_PRIME - 1)] * 2))
    @settings(max_examples=5, deadline=None)
    def check(X, pf, pg, bits, seed, point):
        rng = random.Random(seed)
        f = deep_series(rng, 5, X, pf, bits)
        g = deep_series(rng, 6, X - rng.randrange(3), pg, bits)
        parities.append((parity(f), parity(g)))
        want = oracles.image_product(oracles.image(f, point), oracles.image(g, point))
        assert oracles.image(multiply(f, g), point) == want

    check()
    assert {(1, -1), (-1, 0), (0, 1)} <= set(parities)


def test_square_of_weight_two(gens12):
    sq = gens12.monomial((("E2", 2),))
    assert sq.coeff(ZERO) == 1
    assert sq.coeff((2, 1, -1)) == 96
    assert sq.coeff((4, 2, -2)) == 2688


def test_constructor_validation():
    with pytest.raises(ValueError):
        FourierSeries(0, 0, {})
    with pytest.raises(ValueError):
        FourierSeries(0, 4, {(1, 0, 0): 1})  # grade 1 layer is empty
    with pytest.raises(ValueError):
        FourierSeries(0, 4, {(6, 0, -3): 1})  # beyond prec
    s = FourierSeries(0, 4, {(2, 1, -1): 0, ZERO: "3/2"})
    assert s.coeffs == {ZERO: Fr(3, 2)}
    with pytest.raises(TypeError, match="unhashable type"):
        hash(s)  # __eq__ compares coefficients, so a series has no hash


def test_from_vector_needs_positive_den():
    assert FourierSeries.from_vector(0, 2, 2, [2, 0, 0]) == one(2)
    for den in (0, -2):
        with pytest.raises(ValueError):
            FourierSeries.from_vector(0, 2, den, [2, 0, 0])


def test_from_vector_rejects_a_short_vector():
    # a short vec would make a series whose missing entries zip() drops
    with pytest.raises(ValueError, match="vec has 1 entries, prec 5 needs"):
        FourierSeries.from_vector(2, 5, 1, [1])
    full = FourierSeries(2, 5, {ZERO: 1, (2, 1, -1): 3})
    assert FourierSeries.from_vector(2, 5, 1, full.vec + [7]) == full


def test_truncate_and_cusp():
    e2 = eisenstein_series(EisensteinParams(2), 8)
    t = e2.truncate(4)
    assert t.prec == 4 and t.coeff((4, 1, -2)) == 144
    assert all(grade(e) <= 4 for e in t.coeffs)
    assert e2.coeff(ZERO) != 0
    assert linear_combine([(1, e2), (-1, e2)]).coeff(ZERO) == 0


def test_mixed_weight_rejected():
    e2 = eisenstein_series(EisensteinParams(2), 4)
    e4 = eisenstein_series(EisensteinParams(4), 4)
    with pytest.raises(ValueError):
        linear_combine([(1, e2), (1, e4)])
    with pytest.raises(ValueError):
        rank_of_span([e2, e4])


small = st.integers(-4, 4)
support = enumerate_cone(4)


@st.composite
def weight0_series(draw):
    coeffs = {ZERO: draw(small)}
    for eta in draw(st.sets(st.sampled_from(support), max_size=5)):
        coeffs[eta] = draw(small)
    return FourierSeries(0, 4, coeffs)


def parity(s):
    return fourier._parity(s.vec, mirror(s.prec))


def test_ring_axioms():
    split, paired = [], []

    @given(weight0_series(), weight0_series(), weight0_series())
    @settings(max_examples=60, deadline=None)
    def check(f, g, h):
        assert multiply(f, g) == multiply(g, f)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
        fg_h = multiply(linear_combine([(1, f), (1, g)]), h)
        assert fg_h == linear_combine([(1, multiply(f, h)), (1, multiply(g, h))])
        assert multiply(f, one(4)) == f
        split.append(not all(map(parity, (f, g, h))))
        paired.append(bool(parity(f) and parity(g)))

    check()
    assert any(split)  # some operand had no parity, so product split it
    assert any(paired)  # and some f * g multiplied two operands with one


def test_cusp_products_stay_cuspidal():
    constant, square = [], []

    # c * c reaches grade 4 only through c's terms of grade 2, so add one
    @given(weight0_series(), st.sampled_from(((2, 1, -1), (2, 0, -1))), small)
    @settings(max_examples=30, deadline=None)
    def check(f, eta, v):
        f = linear_combine([(1, f), (v, FourierSeries(0, 4, {eta: 1}))])
        c = linear_combine([(1, f), (-f.coeff(ZERO), one(4))])
        assert c.coeff(ZERO) == 0
        cc = multiply(c, c)
        assert cc.coeff(ZERO) == 0
        constant.append(f.coeff(ZERO) != 0)
        square.append(any(cc.vec))

    check()
    assert any(constant)  # some f had a constant term to remove
    assert any(square)  # and some c * c was nonzero


def test_sqrt_recovers_handmade_root():
    h = FourierSeries(4, 6, {(2, 0, -1): 1, (3, 1, -2): -7,
                             (4, 1, -2): Fr(5, 3), (6, 2, -3): 11})
    g = multiply(h, h)
    assert sqrt_monic(g, (2, 0, -1)) == h.truncate(g.prec - 2)


def test_sqrt_rejects_perturbed_square():
    h = FourierSeries(4, 6, {(2, 0, -1): 1, (4, 1, -2): 3})
    g = multiply(h, h)
    bumped = linear_combine([(1, g), (1, FourierSeries(8, g.prec, {(5, 1, -2): 1}))])
    with pytest.raises(ValueError):
        sqrt_monic(bumped, (2, 0, -1))


def test_sqrt_input_validation():
    with pytest.raises(ValueError):
        sqrt_monic(FourierSeries(5, 6, {(4, 0, -2): 1}), (2, 0, -1))
    with pytest.raises(ValueError):
        sqrt_monic(FourierSeries(8, 6, {(4, 0, -2): 2}), (2, 0, -1))
    with pytest.raises(ValueError):
        sqrt_monic(FourierSeries(8, 6, {(2, 0, -1): 1}), (2, 0, -1))


def test_refusals_name_their_reason():
    with pytest.raises(ValueError, match="empty linear combination"):
        linear_combine([])
    # one(6) is the square of one: only the lead check refuses the origin
    with pytest.raises(ValueError, match="leading index must be positive"):
        sqrt_monic(one(6), ZERO)
    e4 = eisenstein_series(EisensteinParams(4), 6)
    for span in (rank_of_span, relation_nullspace):
        with pytest.raises(ValueError, match="forms must share one precision"):
            span([e4, e4.truncate(4)])


def test_solver_rejects_short_inputs():
    with pytest.raises(ValueError):  # prec 3 below 2 * grade(lead) = 4
        sqrt_monic(FourierSeries(4, 3, {}), (2, 0, -1))
    with pytest.raises(ValueError):  # divisor prec 1 below grade(lead) = 2
        divide_exact(FourierSeries(5, 1, {}), FourierSeries(5, 1, {}), (2, 1, -1))


def test_sqrt_reads_a_lead_at_the_square_s_top_grade(gens12):
    # grade 4 is 2 * grade(CHI5A_LEAD): the square's top slice holds the lead
    square = multiply(gens12.chi5a, gens12.chi5a).truncate(4)
    assert sqrt_monic(square, CHI5A_LEAD) == gens12.chi5a.truncate(2)


def test_solver_runs_its_re_expansion_check(gens12, monkeypatch):
    """A full-range product that is off by one at the top position must make
    both the root and the quotient raise: the re-expansion check is live.
    The per-grade products (lo > 0) stay exact, so only that check can fire."""
    square = multiply(gens12.chi5a, gens12.chi5a)
    exact = fourier.product

    def bumped(F, G, lo, hi):
        out = exact(F, G, lo, hi)
        if lo == 0:
            out[-1] += 1
        return out

    monkeypatch.setattr(fourier, "product", bumped)
    with pytest.raises(ValueError, match="re-expansion residual is nonzero"):
        sqrt_monic(square, CHI5A_LEAD)
    with pytest.raises(ValueError, match="re-expansion residual is nonzero"):
        divide_exact(gens12.delta20a, gens12.chi5b, CHI5B_LEAD)


def test_solver_cross_terms_sum_once_per_orbit(gens12, parity_reads, monkeypatch):
    """chi5a^2 and chi5a are iota-even, delta20a is iota-odd and chi5b even,
    so every product of the root and the quotient, the per-grade cross terms
    included, reads a parity on its operands and sums each orbit once."""
    square = multiply(gens12.chi5a, gens12.chi5a)
    root = sqrt_monic(square, CHI5A_LEAD)
    quotient = divide_exact(gens12.delta20a, gens12.chi5b, CHI5B_LEAD)
    exact = fourier.product
    lows = []

    def counting(F, G, lo, hi):
        lows.append(lo)
        return exact(F, G, lo, hi)

    monkeypatch.setattr(fourier, "product", counting)
    parity_reads.clear()
    assert sqrt_monic(square, CHI5A_LEAD) == root
    assert divide_exact(gens12.delta20a, gens12.chi5b, CHI5B_LEAD) == quotient
    assert all(parity_reads) and len(parity_reads) == 2 * len(lows)
    assert any(lo > 0 for lo in lows)


def test_solver_holds_no_fraction(gens12, monkeypatch):
    square = multiply(gens12.chi5a, gens12.chi5a)
    root = sqrt_monic(square, CHI5A_LEAD)
    quotient = divide_exact(gens12.delta20a, gens12.chi5b, CHI5B_LEAD)

    def no_fraction(*args):
        raise AssertionError("the solver built a Fraction")

    monkeypatch.setattr(fourier, "Fraction", no_fraction)
    assert sqrt_monic(square, CHI5A_LEAD) == root
    assert divide_exact(gens12.delta20a, gens12.chi5b, CHI5B_LEAD) == quotient


def test_divide_recovers_handmade_factor():
    b = FourierSeries(5, 8, {(2, 1, -1): 2, (4, 1, -2): 9})
    h = FourierSeries(7, 8, {ZERO: Fr(1, 2), (2, 0, -1): -3, (5, 1, -2): 1})
    g = multiply(b, h)
    q = divide_exact(g, b, (2, 1, -1))
    assert q == h.truncate(g.prec - 2)


def test_divide_rejects_non_multiple():
    chi5 = GeneratorSet.build(8, upto="chi5")
    chi5a, chi5b = chi5.chi5a, chi5.chi5b
    with pytest.raises(ValueError):
        divide_exact(chi5a, chi5b, (2, 1, -1))
    with pytest.raises(ValueError):
        divide_exact(chi5b.truncate(6), chi5a.truncate(4), (2, 0, -1))
    with pytest.raises(ValueError, match="dividend support below the leading grade"):
        divide_exact(chi5.e4, chi5a, CHI5A_LEAD)


def test_rank_duplicates_and_scaling():
    e2 = eisenstein_series(EisensteinParams(2), 6)
    assert rank_of_span([e2]) == 1
    assert rank_of_span([e2, e2]) == 1
    assert rank_of_span([e2, linear_combine([(Fr(-2, 7), e2)])]) == 1
    assert rank_of_span([]) == 0


def test_nullspace_finds_known_relation():
    e2 = eisenstein_series(EisensteinParams(2), 6)
    e4 = eisenstein_series(EisensteinParams(4), 6)
    e2sq = multiply(e2, e2)
    diff = linear_combine([(1, e2sq), (-1, e4)])
    null = relation_nullspace([e2sq, e4, diff])
    assert len(null) == 1
    v = null[0]
    scale = v[0]
    assert scale and [c / scale for c in v] == [1, -1, -1]
    assert relation_nullspace([e2sq, e4]) == []


def test_nullspace_is_exact_when_the_last_column_is_a_pivot():
    # the last pivot's back substitution sums nothing; an int 0 / pivot
    # would be the float 0.0 and turn every earlier entry into a float
    e2 = eisenstein_series(EisensteinParams(2), 6)
    e4 = eisenstein_series(EisensteinParams(4), 6)
    e4_third = linear_combine([(Fr(1, 3), e4)])
    null = relation_nullspace([e4_third, e4, multiply(e2, e2)])
    assert null == [(Fr(-3), Fr(1), Fr(0))]
    assert all(type(c) is Fr for c in null[0])


def test_truncation_reduces_to_lowest_terms():
    s = FourierSeries(3, 4, {ZERO: Fr(1, 2), (4, 1, -2): Fr(1, 3)})
    assert s.den == 6
    t = s.truncate(2)
    assert t == FourierSeries(3, 2, {ZERO: Fr(1, 2)}) and t.den == 2


def test_cancelling_combination_is_zero_over_one():
    s = FourierSeries(3, 4, {ZERO: Fr(1, 2), (4, 1, -2): Fr(1, 3)})
    z = linear_combine([(Fr(2, 7), s), (Fr(-2, 7), s)])
    assert not any(z.vec) and z.den == 1 and len(z.vec) == position_count(4)
    assert z == FourierSeries(3, 4, {})


rationals = st.builds(Fr, small, st.integers(1, 6))


@st.composite
def rational_series(draw):
    eta_set = draw(st.sets(st.sampled_from((ZERO,) + support), max_size=5))
    return FourierSeries(0, 4, {eta: draw(rationals) for eta in eta_set})


def lowest_terms(s):
    """The representation invariant: a positive denominator with no factor
    common to every numerator, one numerator per position, and the fields
    the validating constructor gives for the same coefficients."""
    return (s.den > 0 and gcd(s.den, *s.vec) == 1
            and len(s.vec) == position_count(s.prec)
            and FourierSeries(s.weight, s.prec, s.coeffs) == s)


def test_results_stay_in_lowest_terms():
    reduced = []

    @given(rational_series(), rational_series(), rationals)
    @settings(max_examples=60, deadline=None)
    def check(f, g, c):
        fg = multiply(f, g)
        for s in (f, fg, fg.truncate(3), linear_combine([(c, f), (1, g), (-c, f)]),
                  linear_combine([(c, f), (c, g)]).truncate(2)):
            assert lowest_terms(s)
        reduced.append(fg.den < f.den * g.den)

    check()
    assert any(reduced)  # some product's denominator had a factor to divide out
