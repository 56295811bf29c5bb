"""The Fourier index lattice: triples eta = (x, y, z) in Z^3 with the norm
form m_eta, the positivity cone, grade-by-grade enumeration, additive
decompositions (convolution support), and the quadratic-field invariants
(a, d, f) attached to each cone point.

The "grade" of an index is its x-coordinate.  It is additive under index
addition and zero only at the origin, which is what makes it the right
truncation parameter for series products.

Positions number the indices of grade <= X as positions(X), the origin then
enumerate_cone(X); the numbering for X is a prefix of the one for any X' > X,
so a position never depends on the truncation.  The convolution table of
grade x lists, for each index eta of that grade, the positions (i, j) of
every decomposition a + b = eta as two compact unsigned-short arrays;
`fourier`'s integer kernel sums over it.  Positions fit an unsigned short
through grade MAX_GRADE = 82; a deeper table raises OverflowError.
"""
from array import array
from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from . import exactnum

ZERO = (0, 0, 0)
MAX_GRADE = 82  # position_count(82) = 64443 fits array("H"); grade 83 does not

QuadInvariants = namedtuple("QuadInvariants", "a d f")


def norm_m(eta):
    x, y, z = eta
    return -(5 * x * x + 5 * y * y + 24 * z * z - 2 * x * y + 24 * z * x)


def grade(eta):
    return eta[0]


def is_positive(eta):
    return eta[0] > 0 and norm_m(eta) > 0


def index_key(eta):
    """Canonical sort key (x, m_eta, y, z)."""
    return (eta[0], norm_m(eta), eta[1], eta[2])


@lru_cache(maxsize=None)
def layer(x):
    """All positive indices of grade exactly x, canonically ordered.

    Positivity forces 5z^2 + 5xz + x^2 < 0, which pins z to a short interval
    strictly inside (-x, 0); for each such z the admissible y lie strictly
    between the roots of 5y^2 - 2xy + (5x^2 + 24z^2 + 24zx).  Both intervals
    are scanned with integer arithmetic only.
    """
    pts = []
    for z in range(-x, 1):
        if 5 * z * z + 5 * x * z + x * x >= 0:
            continue
        Ry = -24 * x * x - 120 * z * z - 120 * x * z  # discriminant/5 of the y-quadratic
        if Ry <= 0:
            continue
        ty = isqrt(Ry - 1)  # largest integer strictly below sqrt(Ry)
        ylo = -((ty - x) // 5)
        for y in range(ylo, (x + ty) // 5 + 1):
            eta = (x, y, z)
            if not is_positive(eta):
                raise ValueError("layer scan produced the non-positive index %r"
                                 % (eta,))
            pts.append(eta)
    pts.sort(key=index_key)
    return tuple(pts)


@lru_cache(maxsize=None)
def enumerate_cone(X):
    """All positive indices of grade <= X in canonical order."""
    out = []
    for x in range(1, X + 1):
        out.extend(layer(x))
    return tuple(out)


# Kept for perfbench/tracer.py, which reads its cache_info (ROADMAP item 1).
@lru_cache(maxsize=None)
def decompositions(eta):
    """All ordered pairs (a, b) of zero-or-positive indices with a + b = eta."""
    if eta == ZERO:
        return ((ZERO, ZERO),)
    out = [(ZERO, eta), (eta, ZERO)]
    for x1 in range(2, eta[0] - 1):
        for a in layer(x1):
            b = (eta[0] - a[0], eta[1] - a[1], eta[2] - a[2])
            if is_positive(b):
                out.append((a, b))
    return tuple(out)


@lru_cache(maxsize=None)
def positions(X):
    """The indices of grade <= X in position order, the origin first."""
    return (ZERO,) + enumerate_cone(X)


def position_count(X):
    """Number of positions of grade <= X."""
    return len(positions(X)) if X >= 0 else 0


@lru_cache(maxsize=None)
def layer_positions(x):
    """{eta: position} for the indices of grade x (x = 0 is the origin)."""
    if x == 0:
        return {ZERO: 0}
    start = position_count(x - 1)
    return {eta: start + i for i, eta in enumerate(layer(x))}


@lru_cache(maxsize=None)
def convolution_layer(x):
    """For each index eta of grade x, in position order, a pair (A, B) of
    position arrays with position A[n] + position B[n] = eta over all
    decompositions of eta.

    Built pair by pair from the layers below: the cone is convex, so the sum
    of two positive indices is positive and every pair of grades x1 + x2 = x
    lands on a target.
    """
    if x == 0:
        return ((array("H", [0]), array("H", [0])),)
    pos = layer_positions(x)
    start = position_count(x - 1)
    A = [[0, t] for t in pos.values()]
    B = [[t, 0] for t in pos.values()]
    for x1 in range(1, x):
        right = layer_positions(x - x1).items()
        for a, i in layer_positions(x1).items():
            for b, j in right:
                t = pos[(a[0] + b[0], a[1] + b[1], a[2] + b[2])] - start
                A[t].append(i)
                B[t].append(j)
    return tuple((array("H", a), array("H", b)) for a, b in zip(A, B))


def quad_invariants(eta):
    """Content a = gcd(|x|,|y|,|z|), then -m_eta/a^2 = d*f^2 with d a negative
    fundamental discriminant; only defined on cone points."""
    if not is_positive(eta):
        raise ValueError("quad_invariants needs a positive index, got %r" % (eta,))
    a = gcd(gcd(abs(eta[0]), abs(eta[1])), abs(eta[2]))
    d, f = exactnum.fundamental_discriminant_split(-norm_m(eta) // (a * a))
    return QuadInvariants(a, d, f)
