"""Truncated formal Fourier series over the index cone, with exact rational
coefficients: linear combinations, convolution products, formal square roots,
exact division, and exact linear algebra on coefficient vectors.

A series is truncated at a grade bound `prec`: every coefficient with grade
<= prec is stored exactly.  Because grade is additive and only the origin has
grade 0, products of truncated series are again exact at every retained grade.

A series is a denominator `den` and one int `vec[n]` per position n of
`lattice` of grade <= prec, the coefficient there being vec[n] / den, in
lowest terms (den > 0, gcd(den, *vec) == 1) so that equal series have equal
fields.  One kernel, `product` over `lattice.orbit_layer`, forms every
product: behind `multiply`, the 14 convolutions of `diffop.bracket` and the
integer solver `_solve` behind `sqrt_monic` and `divide_exact`, both its
per-grade cross terms and its re-expansion check.  The table holds one
target of each orbit of the reflection iota(x, y, z) = (x, y, -x - z),
which keeps grade and norm; the other member's pairs are the images of the
stored ones.  `product` alone picks the path, holding no sign from its
callers: on each call it checks whether the operands, to the top grade
asked for, are iota-even or iota-odd.  Then the product has the product parity, one sum per orbit
of targets gives both coefficients of the orbit, and at a fixed target the
two pairs of a pair-orbit add up equal (even product) or cancel (odd
product).  Otherwise the mirrored member is summed over the mirrored
operands.  Ranks and relation spaces use one elimination, `_echelon`:
division-free on integer rows, each row kept primitive, with Bareiss's
pivots and entries no larger than his minors (Bareiss, Math. Comp. 22,
1968); `rank_of_span` ranks the even and the odd rows apart, on one
position per orbit.  `Fraction` holds single values only: the
validating constructor's input, `coeff`, `coeffs` and `sorted_items`, the
scalars of `linear_combine` and the back-substitution of
`relation_nullspace`.
"""
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

from .lattice import (ZERO, grade, is_positive, layer_positions, mirror, orbit_layer,
                      position_count, positions)


class FourierSeries:
    """Weight-tagged, precision-tagged coefficient vector over a common
    denominator; FourierSeries(weight, prec, {eta: rational}) validates its
    input, FourierSeries.from_vector takes the arithmetic's own output."""

    __slots__ = ("weight", "prec", "den", "vec")

    def __init__(self, weight, prec, coeffs):
        if prec < 1:
            raise ValueError("prec must be >= 1")
        vec = [0] * position_count(prec)
        for eta, v in coeffs.items():
            v = Fraction(v)
            if not v:
                continue
            if eta != ZERO and not is_positive(eta):
                raise ValueError("index %r outside the closed cone" % (eta,))
            if grade(eta) > prec:
                raise ValueError("index %r beyond prec %d" % (eta, prec))
            vec[layer_positions(grade(eta))[eta]] = v
        # The lcm of reduced denominators shares no factor with every numerator.
        den = lcm(*(v.denominator for v in vec))
        self.weight, self.prec = weight, prec
        self.den, self.vec = den, [v.numerator * (den // v.denominator) for v in vec]

    @classmethod
    def from_vector(cls, weight, prec, den, vec):
        """The series with coefficient vec[n] / den (den > 0) at each position
        n of grade <= prec, in lowest terms; vec may be longer, not shorter."""
        if prec < 1 or den < 1:
            raise ValueError("prec and den must be >= 1")
        if len(vec) < position_count(prec):
            raise ValueError("vec has %d entries, prec %d needs %d"
                             % (len(vec), prec, position_count(prec)))
        vec = vec[:position_count(prec)]
        k = gcd(den, *vec)
        self = cls.__new__(cls)
        self.weight, self.prec = weight, prec
        self.den, self.vec = den // k, [v // k for v in vec]
        return self

    def coeff(self, eta):
        x = grade(eta)
        n = layer_positions(x).get(eta) if 0 <= x <= self.prec else None
        return Fraction(0 if n is None else self.vec[n], self.den)

    @property
    def coeffs(self):
        """A new {eta: Fraction} of the nonzero coefficients."""
        return dict(self.sorted_items())

    def truncate(self, X):
        if X >= self.prec:
            return self
        return FourierSeries.from_vector(self.weight, X, self.den, self.vec)

    def sorted_items(self):
        """(eta, coefficient) pairs of the nonzero coefficients, in position
        order, which is index_key order."""
        return [(eta, Fraction(v, self.den))
                for eta, v in zip(positions(self.prec), self.vec) if v]

    def __eq__(self, other):
        return (isinstance(other, FourierSeries)
                and (self.weight, self.prec, self.den, self.vec)
                == (other.weight, other.prec, other.den, other.vec))

    __hash__ = None

    def __repr__(self):
        return "FourierSeries(weight=%r, prec=%r, %d coefficients)" % (
            self.weight, self.prec, sum(map(bool, self.vec)))


def one(prec):
    """The multiplicative unit: weight 0, constant term 1."""
    return FourierSeries(0, prec, {ZERO: 1})


def linear_combine(terms):
    """Coefficientwise sum(scalar * series); all series must share one weight,
    the result precision is the minimum of the inputs."""
    if not terms:
        raise ValueError("empty linear combination")
    weight = terms[0][1].weight
    prec = min(s.prec for _, s in terms)
    for _, s in terms:
        if s.weight != weight:
            raise ValueError("mixed weights %r and %r" % (weight, s.weight))
    scaled = [(Fraction(sc), s) for sc, s in terms if sc]
    den = lcm(*(sc.denominator * s.den for sc, s in scaled))
    out = [0] * position_count(prec)
    for sc, s in scaled:
        m = sc.numerator * (den // (sc.denominator * s.den))
        out = [a + m * b for a, b in zip(out, s.vec)]
    return FourierSeries.from_vector(weight, prec, den, out)


def _parity(vec, mir):
    """1 if vec is iota-even on the positions of mir, -1 if iota-odd (and
    not zero), 0 if neither."""
    image = list(map(vec.__getitem__, mir))
    head = vec[:len(mir)]
    if image == head:
        return 1
    return -1 if image == list(map(neg, head)) else 0


def product(F, G, lo, hi):
    """Integer convolution of the vectors F and G at every position of grade
    lo..hi, in position order.

    sign is the product of the operands' parities to grade hi (1 even, -1
    odd), or 0 when one has none.  A moved target t gets the sum over its
    pairs, and iota t sign times it, or for sign 0 the same sum over the
    mirrored operands F o iota, G o iota.  A fixed target gets its fixed
    pairs plus both halves of each pair-orbit: twice one half when the
    product is even, 0 in all when odd, each half summed when sign is 0.
    """
    mir = mirror(hi)
    sign = _parity(F, mir)
    sign = sign and sign * _parity(G, mir)
    Fg, Gg = F.__getitem__, G.__getitem__
    if not sign:
        Fm, Gm = list(map(Fg, mir)).__getitem__, list(map(Gg, mir)).__getitem__
    start = position_count(lo - 1)
    out = [0] * (position_count(hi) - start)
    for x in range(lo, hi + 1):
        moved, fixed = orbit_layer(x)
        for t, m, A, B in moved:
            s = sum(map(mul, map(Fg, A), map(Gg, B)))
            out[t - start] = s
            out[m - start] = (sign * s if sign
                              else sum(map(mul, map(Fm, A), map(Gm, B))))
        if sign < 0:
            continue
        for t, A, B, A2, B2 in fixed:
            s = sum(map(mul, map(Fg, A2), map(Gg, B2)))
            out[t - start] = (sum(map(mul, map(Fg, A), map(Gg, B)))
                              + (2 * s if sign
                                 else s + sum(map(mul, map(Fm, A2), map(Gm, B2)))))
    return out


def multiply(f, g):
    """Convolution product; the coefficient at eta is the sum of
    C_f(a) * C_g(b) over all decompositions a + b = eta."""
    X = min(f.prec, g.prec)
    return FourierSeries.from_vector(f.weight + g.weight, X, f.den * g.den,
                                     product(f.vec, g.vec, 0, X))


def _lead(s, lead, what):
    """The integer s.vec[n] at the position n of lead; raises ValueError(what)
    unless lead is a cone index of grade <= s.prec, s vanishes below
    grade(lead) and its grade(lead) slice is one nonzero entry, at lead."""
    x = grade(lead)
    n = layer_positions(x).get(lead) if 0 <= x <= s.prec else None
    if n is None or [i for i, v in enumerate(s.vec[:position_count(x)]) if v] != [n]:
        raise ValueError(what)
    return s.vec[n]


def _solve(g, lead, b):
    """The series h, solved grade by grade in integers, with h * h = g and
    C_h(lead) = 1 when b is None, else with b * h = g; the slice checks are
    the caller's.

    At grade n the new slice of h enters the grade-n slice of partner * h
    (partner b, or h itself for a root) only as c = m * partner.vec[n0]
    times that slice shifted by lead, with m = 2 for a root, 1 for a
    quotient and n0 the position of lead.  The rest, the cross terms, is the
    grade-n `product` of partner with the part of h known so far, because
    the new slice is still zero there.  So the old entries of h are
    scaled by g.den * c, the new entry at eta - lead is g.vec[eta] * pden *
    hden - cross[eta] * g.den over the denominator hden * g.den * c, and the
    gcd, signed so that hden > 0, is divided out; a residual off lead + cone
    raises.  After the last grade h is multiplied back out, and any residual
    raises.
    """
    g0 = grade(lead)
    n0 = layer_positions(g0)[lead]
    hden, hvec = 1, [0] * position_count(g.prec)
    if b is None:
        hvec[n0] = 1
        first, m, weight, what = 2 * g0 + 1, 2, g.weight // 2, "not a square"
    else:
        first, m, weight, what = g0, 1, g.weight - b.weight, "not divisible"
    for n in range(first, g.prec + 1):
        pden, pvec = (hden, hvec) if b is None else (b.den, b.vec)
        c = m * pvec[n0]
        gs, hs = pden * hden, g.den * c
        cross = product(pvec, hvec, n, n)
        hvec = [v * hs for v in hvec]
        for (eta, i), x in zip(layer_positions(n).items(), cross):
            r = g.vec[i] * gs - x * g.den
            if r:
                ep = (eta[0] - lead[0], eta[1] - lead[1], eta[2] - lead[2])
                if not (ep == ZERO or is_positive(ep)):
                    raise ValueError("%s: residual at %r lies outside lead + cone"
                                     % (what, eta))
                hvec[layer_positions(grade(ep))[ep]] = r
        k = gcd(hden * hs, *hvec)
        k = k if c > 0 else -k
        hden, hvec = hden * hs // k, [v // k for v in hvec]
    pden, pvec = (hden, hvec) if b is None else (b.den, b.vec)
    if any(x * g.den != v * pden * hden
           for x, v in zip(product(pvec, hvec, 0, g.prec), g.vec)):
        raise ValueError(what + ": re-expansion residual is nonzero")
    return FourierSeries.from_vector(weight, g.prec - g0, hden, hvec)


def sqrt_monic(g, lead):
    """Formal square root h of g with C_h(lead) = 1, g having unit
    coefficient at 2*lead and no support below grade 2*grade(lead).  prec(h)
    = prec(g) - grade(lead); `_solve` verifies h * h = g, and any residual
    raises, it is never returned silently."""
    if g.weight % 2:
        raise ValueError("square root of an odd-weight series")
    if not is_positive(lead):
        raise ValueError("leading index must be positive")
    what = "not a square: leading slice is not a unit at 2*lead"
    if _lead(g, (2 * lead[0], 2 * lead[1], 2 * lead[2]), what) != g.den:
        raise ValueError(what)
    return _solve(g, lead, None)


def divide_exact(g, b, lead):
    """Exact quotient h with b*h = g, where the divisor b has its leading
    grade slice concentrated at the single index `lead` (any nonzero
    coefficient there) and g has no support below grade(lead).
    prec(h) = prec(g) - grade(lead); `_solve` verifies b * h = g, and a
    nonzero residual raises."""
    if b.prec < g.prec:
        raise ValueError("divisor must carry at least the dividend's precision")
    _lead(b, lead, "divisor leading slice is not concentrated at %r" % (lead,))
    if any(g.vec[:position_count(grade(lead) - 1)]):
        raise ValueError("not divisible: dividend support below the leading grade")
    return _solve(g, lead, b)


def _check_shared(forms):
    if len({s.weight for s in forms}) > 1:
        raise ValueError("forms must share one weight")
    if len({s.prec for s in forms}) > 1:
        raise ValueError("forms must share one precision")


def _echelon(rows, ncols):
    """In-place division-free elimination of integer rows to echelon form,
    each eliminated row kept primitive (H. Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, ch. 2); returns the pivot columns,
    pivot r in row r.

    Pivot p clears a row with entry f != 0 below it by (p/g) * row - (f/g) *
    pivot row, g = gcd(p, f), and the result is divided by its content.
    Scaling a row by a nonzero rational moves no zero, so the pivot columns
    and row swaps are those of Bareiss's fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968), and each stored row lies on the rational line of
    the matching Bareiss row.  A row never eliminated is the input row, which
    Bareiss scales by the last pivot; any other stored row is primitive.
    Either way the Bareiss row is an integer multiple of the stored row, so
    no entry here exceeds Bareiss's minors.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c:]
        p = piv[0]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                new = [pg * a - fg * b for a, b in zip(row[c:], piv)]
                k = gcd(*new)
                row[c:] = [a // k for a in new] if k > 1 else new
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def rank_of_span(forms):
    """Rank over Q of the span of the given series (shared weight and prec),
    by exact elimination on their coefficient vectors.

    When every series is iota-even or iota-odd, the rank is that of the even
    ones on one position per orbit plus that of the odd ones on one position
    per 2-orbit: even and odd vectors span complementary subspaces, an even
    vector is fixed by its values on the orbit representatives, and an odd
    one, zero at every fixed position, by those on the 2-orbits."""
    if not forms:
        return 0
    _check_shared(forms)
    mir = mirror(forms[0].prec)
    parities = [_parity(s.vec, mir) for s in forms]
    if not all(parities):
        rows = [s.vec[:] for s in forms]
        return len(_echelon(rows, len(rows[0])))
    rank = 0
    for sign, cols in ((1, [n for n, m in enumerate(mir) if n <= m]),
                       (-1, [n for n, m in enumerate(mir) if n < m])):
        rows = [list(map(s.vec.__getitem__, cols))
                for s, p in zip(forms, parities) if p == sign]
        rank += len(_echelon(rows, len(cols)))
    return rank


def relation_nullspace(forms):
    """Basis of all rational vectors v with sum(v_i * forms_i) = 0 to the
    shared precision: one vector per free column, 1 there and 0 at the
    other free columns."""
    _check_shared(forms)
    nf = len(forms)
    den = lcm(*(s.den for s in forms))
    cols = [[v * (den // s.den) for v in s.vec] for s in forms]
    rows = [list(row) for row in zip(*cols) if any(row)]
    pivots = _echelon(rows, nf)
    basis = []
    for fc in (c for c in range(nf) if c not in pivots):
        v = [Fraction(0)] * nf
        v[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc = pivots[r]
            v[pc] = Fraction(-sum(rows[r][j] * v[j] for j in range(pc + 1, nf)),
                             rows[r][pc])
        basis.append(tuple(v))
    return basis
