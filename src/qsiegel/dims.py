"""Closed-form dimensions: the cusp-form dimension formula for the groups
indexed by an odd prime p (valid for weight k >= 5), the full modular-form
dimensions at p = 3, and the generating-function coefficients they must
match.
"""
from fractions import Fraction
from collections import namedtuple

from .exactnum import factorize, kronecker_symbol

DimensionReport = namedtuple("DimensionReport", "p rows ok")
# rows: list of (k, dim_cusp, dim_modular, genfun_coeff, match)


def periodic_selector(values, k):
    """values[k mod m] for the period-m list values."""
    return values[k % len(values)]


def _is_odd_prime(p):
    return p > 2 and p % 2 == 1 and factorize(p) == {p: 1}


def _cusp_formula(k, p):
    """The dimension formula as an exact rational, no range checks.

    The two 3-periodic terms are written over the denominator 2^3*3^3 with
    inner polynomials 8+3L+L^2 and 10-3L-L^2 in L = (-3/p); this single form
    is valid for every odd prime including p = 3 (where L = 0), and for
    L = +-1 it reduces to the familiar quarter-integer weights over 2^2*3^2.
    """
    e1 = kronecker_symbol(-1, p)
    L = kronecker_symbol(-3, p)
    sgn = (-1) ** k
    total = Fraction((k - 2) * (k - 1) * (2 * k - 3) * (p * p - 1), 2 ** 7 * 3 ** 2 * 5)
    total += Fraction(p - 1, 2 ** 3 * 3)
    total += Fraction((sgn * (8 + e1) + (2 * k - 3) * (8 - e1)) * (p - e1), 2 ** 7 * 3)
    total += Fraction(periodic_selector([0, -1, 1], k) * (8 + 3 * L + L * L) * (p - L),
                      2 ** 3 * 3 ** 3)
    total += Fraction((2 * k - 3) * (10 - 3 * L - L * L) * (p - L), 2 ** 3 * 3 ** 3)
    total -= Fraction(1 - e1, 2 ** 3)
    total -= Fraction(1 - L, 3)
    total += Fraction(2 * periodic_selector([1, 0, 0, -1, 0], k)
                      * (1 - kronecker_symbol(p, 5)), 5)
    if p % 8 in (3, 5):
        total += Fraction(periodic_selector([1, 0, 0, -1], k), 2 ** 2)
    if p == 3:
        total += Fraction(sgn, 12)
    elif p % 12 == 5:
        total += Fraction(periodic_selector([0, 1, -1], k), 6)
    elif p % 12 == 7:
        total += Fraction(sgn, 6)
    return total


def dim_cusp(k, p):
    """Dimension of the weight-k cusp space for the odd prime p; only valid
    (and only accepted) for k >= 5."""
    if not _is_odd_prime(p):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    if k <= 4:
        raise ValueError("the dimension formula needs k >= 5")
    val = _cusp_formula(k, p)
    if val.denominator != 1 or val < 0:
        raise ValueError("dimension formula gave %s at k=%d, p=%d" % (val, k, p))
    return int(val)


def dim_modular(k):
    """Dimension of the full weight-k space at p = 3: known low-weight values
    for k <= 4, and dim_cusp(k,3) plus one for the Eisenstein series when k
    is even, for k >= 5."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    low = {0: 1, 1: 0, 2: 1, 3: 0, 4: 2}
    if k in low:
        return low[k]
    return dim_cusp(k, 3) + (1 if k % 2 == 0 else 0)


def dims_3(k):
    """(dim_cusp, dim_modular) at p = 3 from one dim_modular(k): the cusp
    space is the full space less the Eisenstein series at even k, for every
    k >= 0."""
    dm = dim_modular(k)
    return dm - (1 - k % 2), dm


def _genfun(k_max):
    """The coefficients of t^0 .. t^k_max of the generating function."""
    c = [0] * (k_max + 1)
    for e in (0, 5, 15, 20):
        if e <= k_max:
            c[e] += 1
    for m in (2, 4, 5, 6):
        for i in range(m, k_max + 1):
            c[i] += c[i - m]
    return c


def genfun_coeff(k):
    """Coefficient of t^k in (1+t^5)(1+t^15) / ((1-t^2)(1-t^4)(1-t^5)(1-t^6))."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    return _genfun(k)[k]


def dimension_report(k_max=244):
    """Per-weight comparison of the p = 3 dimensions against the generating
    function, through weight k_max: one formula evaluation per weight and
    one expansion of the generating function.

    For k >= 5 both sides are quasi-polynomials of degree 3 in k with period
    dividing 60, so agreement at 4 consecutive k in every residue class mod
    60, i.e. for 5 <= k <= 244 (the default), proves it for all k."""
    rows = []
    for k, gf in enumerate(_genfun(k_max)):
        ds, dm = dims_3(k)
        rows.append((k, ds, dm, gf, dm == gf))
    return DimensionReport(3, rows, all(row[4] for row in rows))
