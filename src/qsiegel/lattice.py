"""The Fourier index lattice: triples eta = (x, y, z) in Z^3 with the norm
form m_eta, the positivity cone, its layers (each grade's positive indices
in a box that `layer` proves holds them) and additive decompositions.

The "grade" of an index is its x-coordinate.  It is additive under index
addition and zero only at the origin, which is what makes it the right
truncation parameter for series products.

Positions number the indices of grade <= X as positions(X), the origin then
each layer in turn; the numbering for X is a prefix of the one for any X' > X,
so a position never depends on the truncation.  The convolution table of
grade x, `orbit_layer`, files the positions (i, j) of each decomposition
a + b = t under t exactly when t <= iota t represents its orbit of the
reflection iota (`mirror`), in unsigned-short arrays that `fourier` sums.
Positions fit an unsigned short through grade MAX_GRADE = 82; a deeper
table raises OverflowError.
"""
from array import array
from functools import lru_cache

ZERO = (0, 0, 0)
MAX_GRADE = 82  # position_count(82) = 64443 fits array("H"); grade 83 does not


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

    Completing the square, m_eta > 0 reads 24(z + x/2)^2 < x^2 + 2xy - 5y^2
    = 6x^2/5 - 5(y - x/5)^2, so (z + x/2)^2 < x^2/20 and (y - x/5)^2 <
    6x^2/25: every positive index of grade x has -3x/4 < z < -x/4 and
    -x/3 < y < 3x/4.  The layer is the indices of that box that are positive.
    """
    box = ((x, y, z) for y in range(-x // 3, 3 * x // 4 + 1)
           for z in range(-3 * x // 4, -x // 4 + 1))
    return tuple(sorted(filter(is_positive, box), key=index_key))


def enumerate_cone(X):
    """All positive indices of grade <= X in canonical order."""
    return positions(X)[1:]


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
    return positions(X - 1) + layer(X) if X > 0 else (ZERO,)


def position_count(X):
    """Number of positions of grade <= X."""
    return len(positions(X)) if X >= 0 else 0


@lru_cache(maxsize=None)
def layer_positions(x):
    """{eta: position} for the grade-x tail of positions(x), the origin at x = 0."""
    start = position_count(x - 1)
    return {eta: start + i for i, eta in enumerate(positions(x)[start:])}


@lru_cache(maxsize=None)
def mirror(X):
    """The position of iota(eta) for each position eta of grade <= X, in
    position order; mirror(X) is a prefix of mirror(X') for X' > X."""
    return tuple(layer_positions(x)[(x, y, -x - z)] for x, y, z in positions(X))


@lru_cache(maxsize=None)
def orbit_layer(x):
    """The grade-x convolution table by orbits of iota(x, y, z) = (x, y,
    -x - z), which keeps grade and norm.  A pair (i, j) of a + b = t is
    filed under t exactly when t represents its orbit, t <= iota t, as
    (moved, fixed): (t, iota t, A, B) for each t < iota t, A, B all its
    pairs, whose images are those of iota t; (t, A, B, A2, B2) for each
    t = iota t, A, B its pairs with i = iota i, and A2, B2 the pair with
    i < iota i of each pair-orbit.

    iota keeps all of the position key (x, norm, y, z) but z, so t <= iota t
    exactly when s(t) = x + 2z <= 0, and s is additive and negated by iota.
    With each layer's b sorted by s, the scan of a stops at the first b with
    s(a) + s(b) > 0; at a fixed target s(a) < 0 marks i < iota i, and
    s(a) > 0 the other pair of the orbit, dropped.
    """
    pos, mir = layer_positions(x), mirror(x)
    table = {t: ([], [], [], []) for t in pos.values() if t <= mir[t]}
    for x1 in range(x + 1):
        x2 = x - x1
        right = sorted((x2 + 2 * z, j, y, z) for (_, y, z), j in layer_positions(x2).items())
        for (_, ya, za), i in layer_positions(x1).items():
            sa = x1 + 2 * za
            for sb, j, y, z in right:
                st = sa + sb
                if st > 0 or st == 0 < sa:
                    break
                row = table[pos[(x, ya + y, za + z)]]
                k = 2 if st == 0 > sa else 0
                row[k].append(i)
                row[k + 1].append(j)
    table = {t: tuple(array("H", r) for r in row) for t, row in table.items()}
    return (tuple((t, mir[t], A, B) for t, (A, B, _, _) in table.items() if t < mir[t]),
            tuple((t,) + row for t, row in table.items() if t == mir[t]))
