"""Exact Fourier coefficients of the even-weight Eisenstein series via the
explicit local-factor formula for the group parameters (D1, D2) = (1, 6).

Each coefficient is a rational number

    C(eta) = sign * (4k * B_{k-1,chi_d} / (B_k * B_{2k-2}))
             * prod_{p | D2} 1 / (p^(k-1) - 1)
             * prod_p F_p(eta, k)

with (a, d, f) = quad_invariants(eta), chi = kronecker_symbol(d, .), and
F_p = 1 for every prime outside {p : p | a*f*D2}, so the product is finite.
(With D1 = 1 the formula's factors at the primes dividing D1 are empty.)
The global sign is calibrated once so that the weight-2 series has
coefficient 48 at (2,1,-1); every other table value then serves as a check.

Everything but the weight is shared: the local data of an index, d and
(p, v_p(a), v_p(f), chi_d(p)) for each p | a*f*D2, is computed once per
index for all weights, and the prefactor once per (k, d).  So a coefficient
is the rational prefactor of its discriminant times the integer F = prod F_p,
and a series is assembled in integers over the lcm of its prefactors'
denominators.
"""
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactnum import (bernoulli_number, generalized_bernoulli, kronecker_symbol,
                       p_valuation, prime_divisors)
from .fourier import FourierSeries
from .lattice import enumerate_cone, is_positive, quad_invariants

SIGN = -1
D2 = 6


class EisensteinParams:
    """The weight k (even, >= 2) of an Eisenstein series for (D1, D2) = (1, 6),
    the only group parameters calibrated against reference tables."""

    __slots__ = ("k",)

    def __init__(self, k):
        if k < 2 or k % 2:
            raise ValueError("weight must be an even integer >= 2")
        self.k = k


@lru_cache(maxsize=None)
def _prefactor(k, d):
    pref = Fraction(4 * k) * generalized_bernoulli(k - 1, d) \
        / (bernoulli_number(k) * bernoulli_number(2 * k - 2))
    for p in prime_divisors(D2):
        pref *= Fraction(1, p ** (k - 1) - 1)
    return pref


@lru_cache(maxsize=None)
def _local_data(eta):
    """(d, ((p, v_p(a), v_p(f), chi_d(p)) for each p | a*f*D2)) of the
    positive index eta: the part of its coefficient that is weight-free."""
    a, d, f = quad_invariants(eta)
    return d, tuple((p, p_valuation(p, a), p_valuation(p, f), kronecker_symbol(d, p))
                    for p in prime_divisors(a * f * D2))


@lru_cache(maxsize=None)
def _local_factor(k, p, ap, fp, c):
    """The integer F_p(eta, k) from p, v_p(a), v_p(f) and c = chi_d(p)."""
    q = p ** (2 * k - 3)
    if D2 % p == 0:
        return sum(q ** t for t in range(ap + 1)) \
            - c * p ** (k - 2) * sum(q ** t for t in range(ap))
    Fp = 0
    for t in range(ap + 1):
        r = p ** ((k - 1) * t)
        Fp += r * sum(q ** l for l in range(ap + fp - t + 1))
        Fp -= c * r * p ** (k - 2) * sum(q ** l for l in range(ap + fp - t))
    return Fp


def _coefficient_parts(k, eta):
    """(d, F) with C(eta) = SIGN * _prefactor(k, d) * F and F an integer."""
    d, local = _local_data(eta)
    F = 1
    for p, ap, fp, c in local:
        F *= _local_factor(k, p, ap, fp, c)
    return d, F


def eisenstein_coefficient(params, eta):
    """Coefficient at the positive index eta (the constant term is 1 and is
    handled by eisenstein_series)."""
    if not is_positive(eta):
        raise ValueError("eisenstein_coefficient needs a positive index")
    d, F = _coefficient_parts(params.k, eta)
    return SIGN * _prefactor(params.k, d) * F


def eisenstein_series(params, X):
    """The weight-k Eisenstein series to grade X: constant term 1, all other
    coefficients as in eisenstein_coefficient, over one common denominator."""
    k = params.k
    parts = [_coefficient_parts(k, eta) for eta in enumerate_cone(X)]
    prefs = {d: _prefactor(k, d) for d, _ in parts}
    den = lcm(*(pref.denominator for pref in prefs.values()))
    scale = {d: SIGN * pref.numerator * (den // pref.denominator)
             for d, pref in prefs.items()}
    return FourierSeries.from_vector(k, X, den, [den] + [scale[d] * F for d, F in parts])
