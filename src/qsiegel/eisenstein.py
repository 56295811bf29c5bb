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

A coefficient depends on eta only through its content a and norm m_eta,
and everything but the weight is shared: the local data of such a class, d
and (p, v_p(a), v_p(f), chi_d(p)) for each p | a*f*D2, is computed once
for all weights, and the prefactor once per (k, d).  So a coefficient is
the rational prefactor of its discriminant times the integer F = prod F_p,
evaluated once per class, and a series is assembled in integers over the
lcm of its prefactors' denominators.
"""
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactnum import (bernoulli_number, fundamental_discriminant_split,
                       generalized_bernoulli, kronecker_symbol, p_valuation,
                       prime_divisors)
from .fourier import FourierSeries
from .lattice import enumerate_cone, is_positive, norm_m

SIGN = -1
D2 = 6


# Kept for perfbench/tracer.py, which reads its .k (ROADMAP item 1).
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


def _class(eta):
    """(content, norm) of the positive index eta, which fix its coefficient."""
    return gcd(*eta), norm_m(eta)


@lru_cache(maxsize=None)
def _local_data(a, m):
    """(d, ((p, v_p(a), v_p(f), chi_d(p)) for each p | a*f*D2)) of content a
    and norm m: the weight-free part of the coefficient."""
    d, f = fundamental_discriminant_split(-m // (a * a))
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


def _coefficient_parts(k, cls):
    """(d, F) with C(eta) = SIGN * _prefactor(k, d) * F and F an integer, for
    eta of class cls."""
    d, local = _local_data(*cls)
    F = 1
    for p, ap, fp, c in local:
        F *= _local_factor(k, p, ap, fp, c)
    return d, F


def eisenstein_coefficient(params, eta):
    """Coefficient at the positive index eta (the constant term is 1 and is
    handled by eisenstein_series)."""
    if not is_positive(eta):
        raise ValueError("eisenstein_coefficient needs a positive index")
    d, F = _coefficient_parts(params.k, _class(eta))
    return SIGN * _prefactor(params.k, d) * F


def eisenstein_series(params, X):
    """The weight-k Eisenstein series to grade X: constant term 1, all other
    coefficients as in eisenstein_coefficient, over one common denominator."""
    k = params.k
    classes = list(map(_class, enumerate_cone(X)))
    parts = {cls: _coefficient_parts(k, cls) for cls in dict.fromkeys(classes)}
    prefs = {d: _prefactor(k, d) for d, _ in parts.values()}
    den = lcm(*(pref.denominator for pref in prefs.values()))
    scale = {d: SIGN * pref.numerator * (den // pref.denominator)
             for d, pref in prefs.items()}
    value = {cls: scale[d] * F for cls, (d, F) in parts.items()}
    return FourierSeries.from_vector(k, X, den, [den] + [value[c] for c in classes])
