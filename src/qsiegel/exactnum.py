"""Exact rational arithmetic helpers: Bernoulli numbers, generalized Bernoulli
numbers attached to Kronecker characters, the Kronecker symbol, and the
fundamental-discriminant decomposition behind the quadratic-field invariants.
Generalized Bernoulli numbers come from integer character power sums
S_i(d) = sum_a chi_d(a) a^i over half a period, 1 <= a < |d|/2: the support
of chi_d there is tabulated once per discriminant d and each S_i(d) is
cached per (d, i), so B_{m,chi_d} for m = 1, 3, 5, 7, 9 (the Eisenstein
weights 2..10) share the ten sums S_0(d)..S_9(d).

All values are `fractions.Fraction` (arbitrary precision, always reduced);
nothing here ever rounds.
"""
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

_BERNOULLI = [Fraction(1)]


def bernoulli_number(m):
    """m-th Bernoulli number, convention B_1 = -1/2.

    Computed by the defining recurrence sum(C(n+1, j) B_j, j < n+1) = 0.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    while len(_BERNOULLI) <= m:
        n = len(_BERNOULLI)
        s = sum(comb(n + 1, j) * _BERNOULLI[j] for j in range(n))
        _BERNOULLI.append(-s / Fraction(n + 1))
    return _BERNOULLI[m]


def kronecker_symbol(d, n):
    """Kronecker symbol (d/n), fully extended (n may be 0, negative, even)."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if n < 0:
        return (1 if d >= 0 else -1) * kronecker_symbol(d, -n)
    r = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            r = -r
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def factorize(n):
    """Prime factorization {p: e} of n >= 1 by trial division."""
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


def fundamental_discriminant_split(N):
    """Write the negative integer N (0 or 1 mod 4) as N = d*f^2 with d a
    fundamental discriminant and f a positive integer; return (d, f)."""
    if N >= 0 or N % 4 not in (0, 1):
        raise ValueError("need N < 0 with N = 0 or 1 mod 4, got %r" % (N,))
    g = 1
    for p, e in factorize(-N).items():
        g *= p ** (e // 2)
    s = N // (g * g)  # squarefree part, negative
    if s % 4 == 1:
        return s, g
    # s = 2 or 3 mod 4, so the discriminant is 4s and g is even: an odd g has
    # g^2 = 1 mod 4, so N = s mod 4, and N = 0 or 1 mod 4 with s squarefree
    # (never 0 mod 4) would give s = 1 mod 4, returned above.
    return 4 * s, g // 2


def is_fundamental_discriminant(d):
    return d < 0 and d % 4 in (0, 1) and fundamental_discriminant_split(d) == (d, 1)


@lru_cache(maxsize=None)
def _character_support(d):
    """(a, chi_d(a)) for the residues 1 <= a < |d|/2 with chi_d(a) != 0."""
    return tuple((a, c) for a in range(1, (abs(d) + 1) // 2) if (c := kronecker_symbol(d, a)))


@lru_cache(maxsize=None)
def _power_sum(d, i):
    """The character power sum S_i(d) = sum_{1 <= a < |d|/2} chi_d(a) a^i."""
    return sum(c * a ** i for a, c in _character_support(d))


@lru_cache(maxsize=None)
def generalized_bernoulli(m, d):
    """Generalized Bernoulli number B_{m,chi} for the Kronecker character chi
    of the negative fundamental discriminant d:

        B_{m,chi} = |d|^(m-1) * sum_{a=1}^{|d|} chi(a) B_m(a/|d|).

    chi is odd and B_m(1 - t) = (-1)^m B_m(t), so the terms at a and |d| - a
    are equal for odd m and cancel for even m, and chi(|d|/2) = 0 for even
    |d|: the sum is (1 - (-1)^m) times its half over 1 <= a < |d|/2.
    Expanding B_m(t) = sum_j C(m,j) B_j t^(m-j) there gives

        B_{m,chi} = (1 - (-1)^m) |d|^(-1) * sum_j C(m,j) B_j |d|^j S_{m-j}(d),

    with the integer half-period power sums S_i(d) (_power_sum), shared by
    every m for the same d.  The sum runs in integers over the lcm L of the
    Bernoulli denominators, so one Fraction is formed at the end.
    """
    if not is_fundamental_discriminant(d):
        raise ValueError("%r is not a negative fundamental discriminant" % (d,))
    D = abs(d)
    B = [bernoulli_number(j) for j in range(m + 1)]
    L = lcm(*(b.denominator for b in B))
    s = sum(comb(m, j) * b.numerator * (L // b.denominator) * D ** j * _power_sum(d, m - j)
            for j, b in enumerate(B) if b)
    return Fraction((1 - (-1) ** m) * s, L * D)

