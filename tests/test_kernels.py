"""Differential tests: the integer kernels against the oracles in oracles.py,
on random sparse series (general, iota-even, iota-odd and perturbed), random
rank-deficient matrices, every small discriminant and every Eisenstein
coefficient to grade 16."""
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from qsiegel.diffop import bracket
from qsiegel.eisenstein import EisensteinParams, eisenstein_series
from qsiegel.exactnum import generalized_bernoulli, is_fundamental_discriminant
from qsiegel.fourier import (FourierSeries, _echelon, _parity, divide_exact,
                             linear_combine, multiply, rank_of_span, relation_nullspace,
                             sqrt_monic)
from qsiegel.lattice import ZERO, enumerate_cone, grade, is_positive, layer, mirror, positions

rationals = st.builds(Fr, st.integers(-9, 9), st.integers(1, 6))
LEADS = ((2, 0, -1), (2, 1, -1))


@st.composite
def series(draw, prec=None, weight=None, min_grade=0, max_size=6):
    """A sparse series with rational coefficients on indices of grade >=
    min_grade."""
    prec = draw(st.integers(4, 6)) if prec is None else prec
    weight = draw(st.integers(0, 6)) if weight is None else weight
    idx = [e for e in (ZERO,) + enumerate_cone(prec) if grade(e) >= min_grade]
    support = draw(st.sets(st.sampled_from(idx), max_size=max_size))
    return FourierSeries(weight, prec, {e: draw(rationals) for e in support})


def off_cone_targets(lead, lo, hi):
    """Indices of grade lo..hi that are not lead plus a zero-or-positive
    index: a nonzero residual there has no preimage."""
    out = []
    for eta in enumerate_cone(hi):
        ep = (eta[0] - lead[0], eta[1] - lead[1], eta[2] - lead[2])
        if grade(eta) >= lo and not (ep == ZERO or is_positive(ep)):
            out.append(eta)
    return out


@given(series(), series())
@settings(max_examples=60, deadline=None)
def test_multiply_matches_oracle(f, g):
    assert multiply(f, g) == oracles.multiply(f, g)
    assert multiply(f, f) == oracles.multiply(f, f)


def test_bracket_of_eisenstein_series_matches_oracle(gens12):
    e2, e4, e6 = (s.truncate(7) for s in (gens12.e2, gens12.e4, gens12.e6))
    chi = gens12.chi5a.truncate(7)
    assert bracket(e2, e4, chi, e6) == oracles.bracket(e2, e4, chi, e6)


def iota(eta):
    x, y, z = eta
    return (x, y, -x - z)


def parity(s, X=None):
    """1 (even, or zero), -1 (odd) or 0 (neither) for s truncated to X."""
    return _parity(s.vec, mirror(s.prec if X is None else X))


@st.composite
def symmetric(draw, sign=None, prec=None, weight=None, max_size=6):
    """A sparse series with C(iota eta) = sign * C(eta): iota-even for sign
    1, iota-odd for -1, drawn if None; zero when the support is empty."""
    sign = draw(st.sampled_from((1, -1))) if sign is None else sign
    prec = draw(st.integers(4, 6)) if prec is None else prec
    weight = draw(st.integers(0, 6)) if weight is None else weight
    coeffs = {}
    for eta in draw(st.sets(st.sampled_from(positions(prec)), max_size=max_size)):
        if iota(eta) != eta or sign > 0:
            coeffs[eta] = v = draw(rationals)
            coeffs[iota(eta)] = sign * v
    return FourierSeries(weight, prec, coeffs)


@st.composite
def perturbed(draw, prec=None, weight=None):
    """A symmetric series with one coefficient off its orbit's rule, so it
    is neither even nor odd."""
    s = draw(symmetric(prec=prec, weight=weight))
    eta = draw(st.sampled_from([e for e in positions(s.prec) if iota(e) != e]))
    bump = FourierSeries(s.weight, s.prec, {eta: draw(rationals.filter(bool))})
    out = linear_combine([(1, s), (1, bump)])
    assume(parity(out) == 0)
    return out


@given(symmetric(), symmetric())
@settings(max_examples=80, deadline=None)
def test_symmetric_multiply_matches_oracle(f, g):
    h = multiply(f, g)
    assert h == oracles.multiply(f, g)
    assert not any(h.vec) or parity(h) == parity(f) * parity(g)
    assert multiply(f, f) == oracles.multiply(f, f)


@given(st.one_of(symmetric(), series()), st.one_of(perturbed(), series()),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_multiply_with_an_operand_of_no_parity_matches_oracle(f, g, swap):
    if swap:
        f, g = g, f
    assert multiply(f, g) == oracles.multiply(f, g)


@st.composite
def moved_and_fixed(draw):
    """A series to grade 7 or 8 with no parity, nonzero at the origin, at
    an index of grade 2 (fixed by iota) and at one of grade 3 (moved)."""
    s = draw(series(prec=draw(st.integers(7, 8))))
    coeffs = dict(s.coeffs)
    for eta in (ZERO, draw(st.sampled_from(layer(2))), draw(st.sampled_from(layer(3)))):
        coeffs[eta] = draw(rationals.filter(bool))
    out = FourierSeries(s.weight, s.prec, coeffs)
    assume(parity(out) == 0)
    return out


@given(moved_and_fixed(), moved_and_fixed())
@settings(max_examples=60, deadline=None)
def test_multiply_without_parity_matches_oracle_on_moved_and_fixed_targets(f, g):
    h = oracles.multiply(f, g)
    mir = mirror(h.prec)
    assume({n == mir[n] for n, v in enumerate(h.vec) if n and v} == {False, True})
    assert multiply(f, g) == h


@st.composite
def symmetric_below(draw, X):
    """A series of prec X + 2, symmetric to grade X and arbitrary above."""
    s = draw(symmetric(prec=X + 2))
    tail = draw(series(prec=X + 2, weight=s.weight, min_grade=X + 1))
    return linear_combine([(1, s), (1, tail)])


@given(symmetric(prec=4), symmetric_below(4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_unequal_precs_symmetric_below_the_shorter_match_oracle(f, g, swap):
    # the product stops at grade 4, where g is still symmetric
    assert parity(g, 4)
    if swap:
        f, g = g, f
    assert multiply(f, g) == oracles.multiply(f, g)


@st.composite
def bracket_argument(draw, prec, perturb=st.just(False)):
    """A series to grade prec with a coefficient on each of the 7 indices of
    grade <= 3, iota-even with a nonzero constant term or iota-odd, and if
    perturb draws True with one coefficient off its orbit's rule, so that
    it has no parity.  A nonzero bracket term needs the origin and three
    independent positive indices, the first such target being (2, 0, -1) +
    (2, 1, -1) plus one of grade 3, at grade 7."""
    sign = draw(st.sampled_from((1, -1)))
    coeffs = {ZERO: draw(rationals.filter(bool))} if sign > 0 else {}
    for eta in positions(3)[1:]:
        if iota(eta) not in coeffs and (sign > 0 or iota(eta) != eta):
            coeffs[eta] = v = draw(rationals)
            coeffs[iota(eta)] = sign * v
    perturbed = draw(perturb)
    if perturbed:
        eta = draw(st.sampled_from([e for e in positions(3) if iota(e) != e]))
        coeffs[eta] += draw(rationals.filter(bool))
    out = FourierSeries(draw(st.integers(1, 6)), prec, coeffs)
    assume(not perturbed or parity(out) == 0)
    return out


@given(bracket_argument(8), bracket_argument(8), bracket_argument(9),
       bracket_argument(8, perturb=st.booleans()))
@settings(max_examples=40, deadline=None)
def test_symmetric_bracket_matches_oracle(f1, f2, f3, f4):
    assert bracket(f1, f2, f3, f4) == oracles.bracket(f1, f2, f3, f4)


# Four series with no parity whose bracket is nonzero at grade 7.
NONZERO_BRACKET = (
    FourierSeries(1, 7, {ZERO: 1, (2, 0, -1): 1, (3, 0, -2): 1}),
    FourierSeries(2, 8, {ZERO: 2, (2, 1, -1): -1, (3, 1, -1): 3}),
    FourierSeries(3, 9, {ZERO: -1, (2, 0, -1): 2, (3, 1, -2): 1}),
    FourierSeries(4, 8, {ZERO: 1, (2, 1, -1): 1, (3, 0, -1): -2}))


def no_parity_bracket_argument():
    return st.integers(7, 9).flatmap(
        lambda prec: bracket_argument(prec, perturb=st.just(True)))


@given(*[no_parity_bracket_argument() for _ in range(4)])
@example(*NONZERO_BRACKET)
@settings(max_examples=30, deadline=None)
def test_bracket_matches_oracle(f1, f2, f3, f4):
    # every product of the bracket takes the kernel's sums over the
    # mirrored operands
    assert bracket(f1, f2, f3, f4) == oracles.bracket(f1, f2, f3, f4)


def test_bracket_example_is_nonzero_and_has_no_parity():
    assert not any(map(parity, NONZERO_BRACKET))
    assert len(bracket(*NONZERO_BRACKET).coeffs) == 4


@st.composite
def symmetric_span(draw):
    """Even and odd rows, each a combination of basis series of its own
    parity (rank deficient), and sometimes one perturbed row, which makes
    the rank take the full elimination."""
    basis = {sign: [draw(symmetric(sign=sign, prec=4, weight=0, max_size=8))
                    for _ in range(draw(st.integers(1, 3)))]
             for sign in (1, -1)}
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        sign = draw(st.sampled_from((1, -1)))
        rows.append(linear_combine([(draw(rationals), s) for s in basis[sign]]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(perturbed(prec=4, weight=0)))
    return rows


@given(symmetric_span())
@settings(max_examples=80, deadline=None)
def test_symmetric_rank_matches_oracle(forms):
    assert rank_of_span(forms) == oracles.rank_of_span(forms)


@st.composite
def monic_root(draw):
    """(lead, h) with h = 1 at lead plus terms of higher grade."""
    lead = draw(st.sampled_from(LEADS))
    rest = draw(series(prec=draw(st.integers(6, 8)), weight=4,
                       min_grade=grade(lead) + 1))
    coeffs = dict(rest.coeffs)
    coeffs[lead] = Fr(1)
    return lead, FourierSeries(4, rest.prec, coeffs)


@given(monic_root())
@settings(max_examples=40, deadline=None)
def test_sqrt_of_square_recovers_root(case):
    lead, h = case
    g = multiply(h, h)
    assert sqrt_monic(g, lead) == h.truncate(g.prec - grade(lead))


@given(monic_root(), st.data(), rationals.filter(bool))
@settings(max_examples=40, deadline=None)
def test_sqrt_rejects_perturbed_square(case, data, bump):
    lead, h = case
    g = multiply(h, h)
    eta = data.draw(st.sampled_from(
        off_cone_targets(lead, 2 * grade(lead) + 1, g.prec)))
    bad = linear_combine([(1, g), (bump, FourierSeries(g.weight, g.prec, {eta: 1}))])
    with pytest.raises(ValueError):
        sqrt_monic(bad, lead)


@st.composite
def divisor_and_quotient(draw):
    lead = draw(st.sampled_from(LEADS))
    prec = draw(st.integers(5, 8))
    rest = draw(series(prec=prec, weight=5, min_grade=grade(lead) + 1))
    coeffs = dict(rest.coeffs)
    coeffs[lead] = draw(rationals.filter(bool))
    h = draw(series(prec=prec, weight=draw(st.integers(0, 6))))
    return lead, FourierSeries(5, prec, coeffs), h


@given(divisor_and_quotient())
@settings(max_examples=40, deadline=None)
def test_divide_of_product_recovers_quotient(case):
    lead, b, h = case
    g = multiply(b, h)
    assert divide_exact(g, b, lead) == h.truncate(g.prec - grade(lead))


@given(divisor_and_quotient(), st.data(), rationals.filter(bool))
@settings(max_examples=40, deadline=None)
def test_divide_rejects_perturbed_product(case, data, bump):
    lead, b, h = case
    g = multiply(b, h)
    eta = data.draw(st.sampled_from(off_cone_targets(lead, grade(lead), g.prec)))
    bad = linear_combine([(1, g), (bump, FourierSeries(g.weight, g.prec, {eta: 1}))])
    with pytest.raises(ValueError):
        divide_exact(bad, b, lead)


@st.composite
def deficient_span(draw):
    """Series that are rational combinations of fewer basis series than
    there are rows, so their span is rank deficient."""
    k = draw(st.integers(1, 4))
    basis = [draw(series(prec=4, weight=0, max_size=8)) for _ in range(k)]
    rows = []
    for _ in range(draw(st.integers(k + 1, k + 4))):
        rows.append(linear_combine([(draw(rationals), s) for s in basis]))
    return rows


@given(deficient_span())
@settings(max_examples=60, deadline=None)
def test_rank_and_nullspace_match_oracle(forms):
    assert rank_of_span(forms) == oracles.rank_of_span(forms)
    null = relation_nullspace(forms)
    assert null == oracles.relation_nullspace(forms)
    assert len(null) == len(forms) - rank_of_span(forms)
    for v in null:
        assert not linear_combine(list(zip(v, forms))).coeffs


@st.composite
def integer_matrix(draw):
    """(rows, ncols): fresh random integer rows mixed with integer
    combinations of earlier rows (rank deficient), copies of earlier rows,
    zero rows, and earlier rows times a large common factor."""
    ncols = draw(st.integers(1, 7))
    fresh = st.lists(st.integers(-40, 40), min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "combination", "copy", "zero",
                                     "scaled")))
        if kind == "fresh" or not rows and kind != "zero":
            row = draw(fresh)
        elif kind == "combination":
            cs = draw(st.lists(st.integers(-5, 5), min_size=len(rows),
                               max_size=len(rows)))
            row = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)]
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        elif kind == "zero":
            row = [0] * ncols
        else:
            k = draw(st.integers(2, 10 ** 15)) * draw(st.sampled_from((1, -1)))
            row = [k * a for a in draw(st.sampled_from(rows))]
        rows.append(list(row))
    return rows, ncols


@given(integer_matrix())
@settings(max_examples=200, deadline=None)
def test_echelon_rows_divide_bareiss_rows(case):
    rows, ncols = case
    ours, theirs = [r[:] for r in rows], [r[:] for r in rows]
    assert _echelon(ours, ncols) == oracles.bareiss(theirs, ncols)
    for row, big in zip(ours, theirs):
        # big is an integer multiple m * row
        j = next((j for j, a in enumerate(row) if a), None)
        m = 0 if j is None else big[j] // row[j]
        assert big == [m * a for a in row]


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_eisenstein_series_matches_oracle(k):
    want = {eta: oracles.eisenstein_coefficient(k, eta) for eta in enumerate_cone(16)}
    s = eisenstein_series(EisensteinParams(k), 16)
    assert s == FourierSeries(k, 16, {ZERO: 1, **want})
    for eta, v in want.items():
        assert s.coeff(eta) == v, eta


def test_integer_bernoulli_values_match_polynomial_values():
    # the oracle's Horner evaluation against the Fraction sum that is
    # checked against sympy, at every residue of one modulus
    D = 24
    for m in range(21):
        L, values = oracles.bernoulli_poly_numerators(m, D)
        assert len(values) == D + 1
        for a, v in enumerate(values):
            assert Fr(v, L * D ** m) == oracles.bernoulli_poly_value(m, Fr(a, D)), (m, a)


@pytest.mark.deep
def test_generalized_bernoulli_matches_oracle():
    discriminants = [d for d in range(-200, 0) if is_fundamental_discriminant(d)]
    assert len(discriminants) == 62
    for d in discriminants:
        for m in range(21):
            assert generalized_bernoulli(m, d) == oracles.generalized_bernoulli(m, d), (m, d)
