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
"""
from fractions import Fraction
from functools import lru_cache

from .exactnum import (bernoulli_number, generalized_bernoulli, kronecker_symbol,
                       p_valuation, prime_divisors)
from .fourier import FourierSeries
from .lattice import ZERO, enumerate_cone, is_positive, quad_invariants

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


def eisenstein_coefficient(params, eta):
    """Coefficient at the positive index eta (the constant term is 1 and is
    handled by eisenstein_series)."""
    if not is_positive(eta):
        raise ValueError("eisenstein_coefficient needs a positive index")
    k = params.k
    a, d, f = quad_invariants(eta)
    val = _prefactor(k, d)
    for p in prime_divisors(a * f * D2):
        ap = p_valuation(p, a)
        c = kronecker_symbol(d, p)
        if D2 % p == 0:
            Fp = sum(p ** ((2 * k - 3) * t) for t in range(ap + 1)) \
                - c * sum(p ** ((2 * k - 3) * t + k - 2) for t in range(ap))
        else:
            fp = p_valuation(p, f)
            Fp = 0
            for t in range(ap + 1):
                Fp += sum(p ** ((2 * k - 3) * l + (k - 1) * t)
                          for l in range(ap + fp - t + 1))
                Fp -= c * sum(p ** ((2 * k - 3) * l + (k - 1) * t + k - 2)
                              for l in range(ap + fp - t))
        val *= Fp
    return SIGN * val


def eisenstein_series(params, X):
    """The weight-k Eisenstein series to grade X: constant term 1, all other
    coefficients from eisenstein_coefficient."""
    coeffs = {eta: eisenstein_coefficient(params, eta) for eta in enumerate_cone(X)}
    return FourierSeries(params.k, X, {ZERO: 1, **coeffs})
