"""Cusp-form dimension formula and the generating-function comparison."""
from fractions import Fraction as Fr
from math import comb

import pytest

from qsiegel.dims import (_cusp_formula, dim_cusp, dim_modular,
                          dimension_report, genfun_coeff, periodic_selector)

# dim S_k at p = 3 for selected weights
ANCHORS_P3 = {5: 2, 6: 2, 7: 2, 8: 3, 9: 4, 10: 6, 15: 13, 20: 27, 25: 47}

FIRST_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73)


def test_anchor_values():
    for k, want in ANCHORS_P3.items():
        assert dim_cusp(k, 3) == want, k


def test_low_weight_modular_dimensions():
    assert [dim_modular(k) for k in range(5)] == [1, 0, 1, 0, 2]
    assert dim_modular(5) == 2
    assert dim_modular(20) == 28
    assert dim_modular(25) == 47


def test_formula_formal_values_below_range():
    # outside its range of validity the raw formula still has frozen values,
    # which pin down every term
    assert [_cusp_formula(k, 3) for k in range(5)] == [0, -1, 0, -1, 1]


def test_rejects():
    with pytest.raises(ValueError):
        dim_cusp(4, 3)
    with pytest.raises(ValueError):
        dim_cusp(5, 2)
    with pytest.raises(ValueError):
        dim_cusp(5, 9)
    with pytest.raises(ValueError):
        dim_cusp(5, 15)


def test_integrality_and_nonnegativity():
    for p in FIRST_ODD_PRIMES:
        for k in range(5, 201):
            v = _cusp_formula(k, p)
            assert v.denominator == 1 and v >= 0, (k, p)
            assert dim_cusp(k, p) == v


def test_leading_term_dominates():
    for p in (3, 7, 29):
        k = 200
        main = Fr((k - 2) * (k - 1) * (2 * k - 3) * (p * p - 1), 2 ** 7 * 3 ** 2 * 5)
        assert abs(Fr(dim_cusp(k, p)) / main - 1) < Fr(5, 100)


def test_genfun_first_coefficients():
    want = [1, 0, 1, 0, 2, 2, 3, 2, 4, 4, 7, 6, 9, 8, 12, 13]
    assert [genfun_coeff(k) for k in range(16)] == want


def test_genfun_satisfies_product_recurrence():
    # multiplying the closed form by its denominator must give the sparse
    # numerator 1 + t^5 + t^15 + t^20
    N = 40
    g = [genfun_coeff(k) for k in range(N)]
    conv = list(g)
    for m in (2, 4, 5, 6):
        nxt = [0] * N
        for k in range(N):
            nxt[k] = conv[k] - (conv[k - m] if k >= m else 0)
        conv = nxt
    want = [0] * N
    for e in (0, 5, 15, 20):
        want[e] = 1
    assert conv == want


def test_report_matches_generating_function():
    report = dimension_report(100)
    assert report.ok
    assert len(report.rows) == 101
    for k, ds, dm, gf, match in report.rows:
        assert match and dm == gf
        assert dm - ds == (1 if k % 2 == 0 else 0)


def test_periodic_selector():
    assert [periodic_selector((0, -1, 1), k) for k in range(6)] == [0, -1, 1, 0, -1, 1]
    assert periodic_selector((1, 0, 0, -1), 7) == -1


def test_fourth_difference_with_step_60_vanishes():
    # for k >= 5 both sides are quasi-polynomials of degree 3 with period
    # dividing 60, which is why `verify --suite dims` stops at weight 244
    for f in (lambda k: dim_cusp(k, 3), genfun_coeff):
        for k in range(5, 120):
            assert sum((-1) ** j * comb(4, j) * f(k + 60 * j) for j in range(5)) == 0, k
