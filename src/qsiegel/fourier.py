"""Truncated formal Fourier series over the index cone, with exact rational
coefficients: linear combinations, convolution products, formal square roots,
exact division, and exact linear algebra on coefficient vectors.

A series is truncated at a grade bound `prec`: every coefficient with grade
<= prec is stored exactly.  Because grade is additive and only the origin has
grade 0, products of truncated series are again exact at every retained grade.

A series is a denominator `den` and one int `vec[n]` per position n of
`lattice` of grade <= prec, the coefficient there being vec[n] / den, in
lowest terms (den > 0, gcd(den, *vec) == 1) so that equal series have equal
fields.  One kernel, `convolve` over `lattice.orbit_layer`, forms every
product: `product` behind `multiply` and the 14 convolutions of
`diffop.bracket`, the solver behind `sqrt_monic` and `divide_exact`, and
their re-expansion checks.  The table holds one target of each orbit of
the reflection iota(x, y, z) = (x, y, -x - z), which keeps grade and norm;
the other member's pairs are the images of the stored ones.  `product`
checks on each call whether the operands are iota-even or iota-odd: then
the product has the product parity, one sum per orbit of targets gives
both coefficients of the orbit, and at a fixed target the two pairs of a
pair-orbit add up equal (even product) or cancel (odd product).  Otherwise,
as for the solver's slices, the mirrored member is summed over the
mirrored operands.  Ranks and relation spaces use one elimination,
`_echelon`: division-free on integer rows, each row kept primitive, with
Bareiss's pivots and entries no larger than his minors (Bareiss, Math.
Comp. 22, 1968); `rank_of_span` ranks the even and the odd rows apart, on
one position per orbit.  `Fraction` holds single values only: the
validating constructor's input, `coeff`, `coeffs` and `sorted_items`, the
scalars of `linear_combine`, the slice entries of `_solve_slices`, the pivot
of `divide_exact` and the back-substitution of `relation_nullspace`.
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
        n of grade <= prec, reduced to lowest terms; vec may run longer."""
        if prec < 1:
            raise ValueError("prec must be >= 1")
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

    def is_cusp(self):
        return not self.vec[0]

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


def convolve(F, G, lo, hi, sign):
    """Integer convolution of the vectors F and G at every position of grade
    lo..hi, in position order; sign is the product of their parities to
    grade hi (1 even, -1 odd), or 0 when one has none.

    A moved target t gets the sum over its pairs, and iota t sign times it,
    or for sign 0 the same sum over the mirrored operands F o iota, G o iota.
    A fixed target gets its fixed pairs plus both halves of each pair-orbit:
    twice one half when the product is even, 0 in all when odd, each half
    summed when sign is 0.
    """
    Fg, Gg = F.__getitem__, G.__getitem__
    if not sign:
        mir = mirror(hi)
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


def _parity(vec, mir):
    """1 if vec is iota-even on the positions of mir, -1 if iota-odd (and
    not zero), 0 if neither."""
    image = list(map(vec.__getitem__, mir))
    head = vec[:len(mir)]
    if image == head:
        return 1
    return -1 if image == list(map(neg, head)) else 0


def product(F, G, X):
    """Integer convolution of the vectors F and G at every position of grade
    <= X, with the parity the operands have to grade X."""
    mir = mirror(X)
    sign = _parity(F, mir)
    return convolve(F, G, 0, X, sign and sign * _parity(G, mir))


def multiply(f, g):
    """Convolution product; the coefficient at eta is the sum of
    C_f(a) * C_g(b) over all decompositions a + b = eta."""
    X = min(f.prec, g.prec)
    return FourierSeries.from_vector(f.weight + g.weight, X, f.den * g.den,
                                     product(f.vec, g.vec, X))


def _solve_slices(g, lead, pivot, first, h, partner, what):
    """Complete h = (den, vec) grade by grade, from grade `first` of g on, so
    that partner * h agrees with g; partner, a (den, vec) pair, None means h
    itself (a square root).

    The new slice of h enters the grade-n slice of partner * h only as
    `pivot` times that slice shifted by lead (pivot is the divisor's lead
    coefficient, or 2 * sign for a square root).  The rest, the cross terms,
    is the kernel's grade-n convolution of partner with the part of h known
    so far, because the new slice is still zero there.  A residual off
    lead + cone raises.
    """
    hden, hvec = h
    for n in range(first, g.prec + 1):
        pden, pvec = (hden, hvec) if partner is None else partner
        den = lcm(g.den, pden * hden)
        gs, cs = den // g.den, den // (pden * hden)
        new, cross = {}, convolve(pvec, hvec, n, n, 0)
        for (eta, i), c in zip(layer_positions(n).items(), cross):
            r = g.vec[i] * gs - c * cs
            if r:
                ep = (eta[0] - lead[0], eta[1] - lead[1], eta[2] - lead[2])
                if not (ep == ZERO or is_positive(ep)):
                    raise ValueError("%s: residual at %r lies outside lead + cone"
                                     % (what, eta))
                new[layer_positions(grade(ep))[ep]] = Fraction(r, den) / pivot
        top = lcm(hden, *(v.denominator for v in new.values()))
        hvec = [v * (top // hden) for v in hvec]
        for p, v in new.items():
            hvec[p] = v.numerator * (top // v.denominator)
        hden = top
    return hden, hvec


def _check_product(F, G, den, g, what):
    """Raise unless the product F * G / den equals g at every grade <= g.prec
    (F and G reach at least that grade)."""
    if any(c * g.den != v * den for c, v in zip(product(F, G, g.prec), g.vec)):
        raise ValueError(what)


def sqrt_monic(g, lead, sign):
    """Formal square root h of g with C_h(lead) = sign (sign is +-1), g having
    unit coefficient at 2*lead and no support below grade 2*grade(lead).

    Solved grade by grade: the grade-(m + grade(lead)) slice of g minus the
    already-known cross terms equals 2*sign times the grade-m slice of h.
    The result is verified by re-expanding h*h to the precision of g; any
    residual raises, it is never returned silently.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if g.weight % 2:
        raise ValueError("square root of an odd-weight series")
    if not is_positive(lead):
        raise ValueError("leading index must be positive")
    g0 = grade(lead)
    lo, hi = position_count(2 * g0 - 1), position_count(2 * g0)
    if any(g.vec[:lo]):
        raise ValueError("not a square: support below twice the leading grade")
    lead2 = (2 * lead[0], 2 * lead[1], 2 * lead[2])
    if ({n: v for n, v in enumerate(g.vec[lo:hi], lo) if v}
            != {layer_positions(2 * g0)[lead2]: g.den}):
        raise ValueError("leading slice is not a unit concentrated at 2*lead")
    hvec = [0] * position_count(g.prec)
    hvec[layer_positions(g0)[lead]] = sign
    hden, hvec = _solve_slices(g, lead, 2 * sign, 2 * g0 + 1, (1, hvec), None,
                               "not a square")
    _check_product(hvec, hvec, hden * hden, g,
                   "not a square: re-expansion residual is nonzero")
    return FourierSeries.from_vector(g.weight // 2, g.prec - g0, hden, hvec)


def divide_exact(g, b, lead):
    """Exact quotient h with b*h = g, where the divisor b has its leading
    grade slice concentrated at the single index `lead` (any nonzero
    coefficient there) and g has no support below grade(lead).

    prec(h) = prec(g) - grade(lead).  Verified by re-multiplication; a nonzero
    residual raises.
    """
    if b.prec < g.prec:
        raise ValueError("divisor must carry at least the dividend's precision")
    g0 = grade(lead)
    lo, hi = position_count(g0 - 1), position_count(g0)
    if any(b.vec[:lo]):
        raise ValueError("divisor has support below its leading grade")
    n = layer_positions(g0).get(lead)
    if [i for i, v in enumerate(b.vec[lo:hi], lo) if v] != [n]:
        raise ValueError("divisor leading slice is not concentrated at %r" % (lead,))
    if any(g.vec[:lo]):
        raise ValueError("not divisible: dividend support below the leading grade")
    hden, hvec = _solve_slices(g, lead, Fraction(b.vec[n], b.den), g0,
                               (1, [0] * position_count(g.prec)), (b.den, b.vec),
                               "not divisible")
    _check_product(b.vec, hvec, b.den * hden, g,
                   "not divisible: re-multiplication residual is nonzero")
    return FourierSeries.from_vector(g.weight - b.weight, g.prec - g0, hden, hvec)


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
            v[pc] = -sum(rows[r][j] * v[j] for j in range(pc + 1, nf)) / rows[r][pc]
        basis.append(tuple(v))
    return basis
