"""Truncated formal Fourier series over the index cone, with exact rational
coefficients: linear combinations, convolution products, formal square roots,
exact division, and exact linear algebra on coefficient vectors.

A series is truncated at a grade bound `prec`: every coefficient with grade
<= prec is stored exactly (absent key = 0).  Because grade is additive and
only the origin has grade 0, products of truncated series are again exact at
every retained grade.

Arithmetic runs on Python ints.  `dense` writes a series as a common
denominator and one int per position of `lattice` (the origin, then
`enumerate_cone` order), `convolve` sums products of two such int vectors
over the per-grade convolution table `lattice.convolution_layer`, and
`from_dense` turns the result back into `Fraction` coefficients once.  That
one kernel serves `multiply`, `diffop.bracket`, the grade-by-grade solver
behind `sqrt_monic` and `divide_exact`, and their re-expansion checks.
Ranks and relation spaces use fraction-free Bareiss elimination (Bareiss,
Math. Comp. 22, 1968) on integer rows.
"""
from fractions import Fraction
from math import lcm
from operator import mul

from .lattice import (ZERO, convolution_layer, enumerate_cone, grade, index_key,
                      is_positive, layer_positions, position_count)


class FourierSeries:
    """Weight-tagged, precision-tagged finite coefficient table."""

    __slots__ = ("weight", "prec", "coeffs")

    def __init__(self, weight, prec, coeffs):
        if prec < 1:
            raise ValueError("prec must be >= 1")
        clean = {}
        for eta, v in coeffs.items():
            if not v:
                continue
            if eta != ZERO and not is_positive(eta):
                raise ValueError("index %r outside the closed cone" % (eta,))
            if grade(eta) > prec:
                raise ValueError("index %r beyond prec %d" % (eta, prec))
            clean[eta] = Fraction(v)
        self.weight = weight
        self.prec = prec
        self.coeffs = clean

    def coeff(self, eta):
        return self.coeffs.get(eta, Fraction(0))

    def is_cusp(self):
        return ZERO not in self.coeffs

    def truncate(self, X):
        if X >= self.prec:
            return self
        return FourierSeries(self.weight, X,
                             {e: v for e, v in self.coeffs.items() if grade(e) <= X})

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: index_key(kv[0]))

    def __eq__(self, other):
        return (isinstance(other, FourierSeries)
                and (self.weight, self.prec, self.coeffs)
                == (other.weight, other.prec, other.coeffs))

    __hash__ = None

    def __repr__(self):
        return "FourierSeries(weight=%r, prec=%r, %d coefficients)" % (
            self.weight, self.prec, len(self.coeffs))


def one(prec):
    """The multiplicative unit: weight 0, constant term 1."""
    return FourierSeries(0, prec, {ZERO: Fraction(1)})


def from_function(weight, prec, coeff_fn):
    """Series whose coefficient at each closed-cone index of grade <= prec is
    coeff_fn(eta)."""
    c = {ZERO: coeff_fn(ZERO)}
    for eta in enumerate_cone(prec):
        v = coeff_fn(eta)
        if v:
            c[eta] = v
    if not c[ZERO]:
        del c[ZERO]
    return FourierSeries(weight, prec, c)


def linear_combine(terms):
    """Coefficientwise sum(scalar * series); all series must share one weight,
    the result precision is the minimum of the inputs."""
    if not terms:
        raise ValueError("empty linear combination")
    weight = terms[0][1].weight
    prec = min(s.prec for _, s in terms)
    out = {}
    for sc, s in terms:
        if s.weight != weight:
            raise ValueError("mixed weights %r and %r" % (weight, s.weight))
        if not sc:
            continue
        for eta, v in s.coeffs.items():
            if grade(eta) > prec:
                continue
            w = out.get(eta, 0) + sc * v
            if w:
                out[eta] = w
            else:
                out.pop(eta, None)
    return FourierSeries(weight, prec, out)


def dense(f, X):
    """f's coefficients of grade <= X as (den, vec): a positive common
    denominator and one int numerator per position of grade <= X (zero
    padded when X exceeds f.prec)."""
    return _extend(1, [0] * position_count(X),
                   {e: v for e, v in f.coeffs.items() if grade(e) <= X})


def _extend(den, vec, coeffs):
    """Write the Fraction coefficients into the dense vector (den, vec),
    raising the common denominator (and rescaling vec) as needed."""
    new = lcm(den, *(v.denominator for v in coeffs.values()))
    if new != den:
        scale = new // den
        vec = [v * scale for v in vec]
    for eta, v in coeffs.items():
        vec[layer_positions(grade(eta))[eta]] = v.numerator * (new // v.denominator)
    return new, vec


def convolve(F, G, lo, hi):
    """Integer convolution of the dense vectors F and G at every position of
    grade lo..hi, in position order."""
    out = []
    for x in range(lo, hi + 1):
        for A, B in convolution_layer(x):
            out.append(sum(map(mul, map(F.__getitem__, A), map(G.__getitem__, B))))
    return out


def from_dense(weight, X, den, vec):
    """The series of weight `weight` and precision X whose coefficient at the
    n-th position is vec[n] / den."""
    idx = (ZERO,) + enumerate_cone(X)
    return FourierSeries(weight, X, {eta: Fraction(v, den)
                                     for eta, v in zip(idx, vec) if v})


def multiply(f, g):
    """Convolution product; the coefficient at eta is the sum of
    C_f(a) * C_g(b) over all decompositions a + b = eta."""
    X = min(f.prec, g.prec)
    df, F = dense(f, X)
    dg, G = (df, F) if g is f else dense(g, X)
    return from_dense(f.weight + g.weight, X, df * dg, convolve(F, G, 0, X))


def power(f, n):
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return one(f.prec)
    r = f
    for _ in range(n - 1):
        r = multiply(r, f)
    return r


def _solve_slices(g, lead, pivot, first, h, partner, what):
    """Complete the dense series h = (den, vec) grade by grade, from grade
    `first` of g on, so that partner * h agrees with g; partner None means h
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
        den = pden * hden
        new = {}
        for (eta, _), c in zip(layer_positions(n).items(), convolve(pvec, hvec, n, n)):
            r = g.coeffs.get(eta, 0)
            if c:
                r -= Fraction(c, den)
            if r:
                ep = (eta[0] - lead[0], eta[1] - lead[1], eta[2] - lead[2])
                if not (ep == ZERO or is_positive(ep)):
                    raise ValueError("%s: residual at %r lies outside lead + cone"
                                     % (what, eta))
                new[ep] = r / pivot
        hden, hvec = _extend(hden, hvec, new)
    return hden, hvec


def _check_product(F, G, den, g, what):
    """Raise unless the dense product F * G / den equals g at every grade
    <= g.prec (factors are zero padded to that grade)."""
    gden, gvec = dense(g, g.prec)
    if any(c * gden != v * den
           for c, v in zip(convolve(F, G, 0, g.prec), gvec)):
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
    if any(grade(e) < 2 * g0 for e in g.coeffs):
        raise ValueError("not a square: support below twice the leading grade")
    lead2 = (2 * lead[0], 2 * lead[1], 2 * lead[2])
    if {e: v for e, v in g.coeffs.items() if grade(e) == 2 * g0} != {lead2: 1}:
        raise ValueError("leading slice is not a unit concentrated at 2*lead")
    h = _extend(1, [0] * position_count(g.prec), {lead: Fraction(sign)})
    hden, hvec = _solve_slices(g, lead, 2 * sign, 2 * g0 + 1, h, None, "not a square")
    _check_product(hvec, hvec, hden * hden, g,
                   "not a square: re-expansion residual is nonzero")
    return from_dense(g.weight // 2, g.prec - g0, hden, hvec)


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
    if any(grade(e) < g0 for e in b.coeffs):
        raise ValueError("divisor has support below its leading grade")
    if [e for e in b.coeffs if grade(e) == g0] != [lead]:
        raise ValueError("divisor leading slice is not concentrated at %r" % (lead,))
    if any(grade(e) < g0 for e in g.coeffs):
        raise ValueError("not divisible: dividend support below the leading grade")
    bden, bvec = dense(b, g.prec)
    h = (1, [0] * len(bvec))
    hden, hvec = _solve_slices(g, lead, b.coeffs[lead], g0, h, (bden, bvec),
                               "not divisible")
    _check_product(bvec, hvec, bden * hden, g,
                   "not divisible: re-multiplication residual is nonzero")
    return from_dense(g.weight - b.weight, g.prec - g0, hden, hvec)


def _check_shared(forms):
    if len({s.weight for s in forms}) > 1:
        raise ValueError("forms must share one weight")
    if len({s.prec for s in forms}) > 1:
        raise ValueError("forms must share one precision")


def _bareiss(rows, ncols):
    """In-place fraction-free elimination (Bareiss 1968) of integer rows to
    echelon form; returns the pivot columns, pivot r in row r.

    Every entry stays an integer: after k pivots each remaining entry is a
    (k+1)-minor of the input, so the division by the previous pivot is exact.
    """
    pivots = []
    prev = 1
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
            row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], piv)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def rank_of_span(forms):
    """Rank over Q of the span of the given series (shared weight and prec),
    by exact elimination on their coefficient vectors."""
    if not forms:
        return 0
    _check_shared(forms)
    rows = [dense(s, s.prec)[1] for s in forms]
    return len(_bareiss(rows, len(rows[0])))


def relation_nullspace(forms):
    """Basis of all rational vectors v with sum(v_i * forms_i) = 0 to the
    shared precision: one vector per free column, 1 there and 0 at the
    other free columns."""
    _check_shared(forms)
    nf = len(forms)
    rows = []
    for eta in (ZERO,) + enumerate_cone(forms[0].prec):
        row = [s.coeffs.get(eta, Fraction(0)) for s in forms]
        if any(row):
            den = lcm(*(v.denominator for v in row))
            rows.append([v.numerator * (den // v.denominator) for v in row])
    pivots = _bareiss(rows, nf)
    basis = []
    for fc in (c for c in range(nf) if c not in pivots):
        v = [Fraction(0)] * nf
        v[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc = pivots[r]
            v[pc] = -sum(rows[r][j] * v[j] for j in range(pc + 1, nf)) / rows[r][pc]
        basis.append(tuple(v))
    return basis
