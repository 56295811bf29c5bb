"""Reference implementations the integer kernels are checked against.

These are straightforward versions, mostly over `Fraction`, of the library's
exact arithmetic: the product as a sum over `decompositions`, each layer as
a scan of a box that contains it, the convolution table as an all-pairs
filing by orbit representatives, the bracket as the
4-fold sum of 4x4 determinants, rank and relation space by Gauss-Jordan
elimination, integer row echelon form by Bareiss's fraction-free
elimination, generalized Bernoulli numbers as a sum of Bernoulli
polynomial values over the residues (each by Horner's rule in integers),
and each Eisenstein coefficient as its own product of `Fraction` local
factors, from the invariants (a, d, f) of `quad_invariants`.  They are
slow and obviously correct; tests compare the library with them on random
inputs.  At deep grades, where those are too slow, `image` maps a series
mod IMAGE_PRIME at one point, a ring map that tests compare products with.
`power`, `bernoulli_poly_value` and `series_from_record` are test helpers
that the library itself never calls.
"""
from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, lcm

from qsiegel import exactnum, fourier
from qsiegel.exactnum import (bernoulli_number, fundamental_discriminant_split,
                              is_fundamental_discriminant, kronecker_symbol)
from qsiegel.fourier import FourierSeries
from qsiegel.lattice import (ZERO, decompositions, enumerate_cone, index_key,
                             is_positive, layer_positions, mirror, norm_m, positions)

QuadInvariants = namedtuple("QuadInvariants", "a d f")


def multiply(f, g):
    """Convolution product; the coefficient at eta is the sum of
    C_f(a) * C_g(b) over all decompositions a + b = eta."""
    prec = min(f.prec, g.prec)
    cf, cg = f.coeffs, g.coeffs
    out = {}
    for eta in (ZERO,) + enumerate_cone(prec):
        acc = 0
        for a, b in decompositions(eta):
            va = cf.get(a)
            if va:
                vb = cg.get(b)
                if vb:
                    acc += va * vb
        if acc:
            out[eta] = acc
    return FourierSeries(f.weight + g.weight, prec, out)


IMAGE_PRIME = 2 ** 61 - 1


def image(s, point):
    """phi(s) at point = (r, u): one residue mod IMAGE_PRIME per grade x <=
    s.prec, the sum of C_s(x, y, z) * r^y * u^z over the grade-x indices,
    negative powers through the inverse.  phi(q^(x, y, z)) = t^x r^y u^z
    adds x, y and z, so it is a ring map on series cut at a grade:
    image(f * g) is image_product(image(f), image(g)) slice by slice."""
    r, u = point
    out = [0] * (s.prec + 1)
    for (x, y, z), v in zip(positions(s.prec), s.vec):
        out[x] += v * pow(r, y, IMAGE_PRIME) * pow(u, z, IMAGE_PRIME)
    inverse = pow(s.den, -1, IMAGE_PRIME)
    return [v * inverse % IMAGE_PRIME for v in out]


def image_product(a, b):
    """The product of two images cut to the shorter: slice x is the sum of
    a[i] * b[x - i]."""
    return [sum(a[i] * b[x - i] for i in range(x + 1)) % IMAGE_PRIME
            for x in range(min(len(a), len(b)))]


def layer_brute(x):
    """Scan the box |y|, |z| <= 2x, which provably contains the layer."""
    out = [(x, y, z)
           for y in range(-2 * x, 2 * x + 1)
           for z in range(-2 * x, 2 * x + 1)
           if is_positive((x, y, z))]
    return sorted(out, key=index_key)


def orbit_pairs(x):
    """{t: pairs} for the grade-x convolution table: every pair (i, j) of
    positions of grades x1 and x - x1, filed under its target t when
    t < iota t, and when t = iota t if i <= iota i; no scan order and no
    early stop."""
    pos, mir = layer_positions(x), mirror(x)
    out = {}
    for x1 in range(x + 1):
        for a, i in layer_positions(x1).items():
            for b, j in layer_positions(x - x1).items():
                t = pos[(a[0] + b[0], a[1] + b[1], a[2] + b[2])]
                if t < mir[t] or t == mir[t] and i <= mir[i]:
                    out.setdefault(t, []).append((i, j))
    return out


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - v[0] * (u[1] * w[2] - u[2] * w[1])
            + w[0] * (u[1] * v[2] - u[2] * v[1]))


def bracket(f1, f2, f3, f4):
    """Determinant bracket as the sum over 4-part decompositions of the
    target, each term weighted by the 4x4 determinant with rows (k1..k4),
    (x1..x4), (y1..y4), (z1..z4), expanded along the weight row."""
    fs = (f1, f2, f3, f4)
    ks = tuple(f.weight for f in fs)
    X = min(f.prec for f in fs)
    cs = tuple(f.coeffs for f in fs)
    out = {}
    for eta in enumerate_cone(X):
        acc = 0
        for u, v in decompositions(eta):
            for e1, e2 in decompositions(u):
                c1 = cs[0].get(e1)
                c2 = cs[1].get(e2)
                if not c1 or not c2:
                    continue
                for e3, e4 in decompositions(v):
                    c3 = cs[2].get(e3)
                    c4 = cs[3].get(e4)
                    if not c3 or not c4:
                        continue
                    d = (ks[0] * _det3(e2, e3, e4) - ks[1] * _det3(e1, e3, e4)
                         + ks[2] * _det3(e1, e2, e4) - ks[3] * _det3(e1, e2, e3))
                    acc += c1 * c2 * c3 * c4 * d
        if acc:
            out[eta] = acc
    return FourierSeries(sum(ks) + 3, X, out)


def _coefficient_rows(forms):
    idx = (ZERO,) + enumerate_cone(forms[0].prec)
    return [[s.coeffs.get(eta, Fraction(0)) for eta in idx] for s in forms]


def eliminate(rows, ncols):
    """In-place Gauss-Jordan over the rationals; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [v - fac * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def bareiss(rows, ncols):
    """In-place fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of
    integer rows to echelon form; returns the pivot columns, pivot r in row r.

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
    if not forms:
        return 0
    rows = _coefficient_rows(forms)
    return len(eliminate(rows, len(rows[0])))


def relation_nullspace(forms):
    """Basis of the relation space from the reduced row echelon form: one
    vector per free column, 1 there and 0 at the other free columns."""
    cols = _coefficient_rows(forms)
    nf = len(forms)
    rows = [[cols[j][i] for j in range(nf)] for i in range(len(cols[0]))]
    pivots = eliminate(rows, nf)
    basis = []
    for fc in (c for c in range(nf) if c not in pivots):
        v = [Fraction(0)] * nf
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def power(f, n):
    """f^n for n >= 0 by repeated library products."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return fourier.one(f.prec)
    r = f
    for _ in range(n - 1):
        r = fourier.multiply(r, f)
    return r


def series_from_record(rec):
    """The series of an `expand` record, read from its rows."""
    coeffs = {(x, y, z): c for x, y, z, _m, c in rec["rows"]}
    return FourierSeries(rec["weight"], rec["prec"], coeffs)


def bernoulli_poly_value(m, t):
    """Value of the m-th Bernoulli polynomial at the rational t."""
    t = Fraction(t)
    return sum(comb(m, j) * bernoulli_number(j) * t ** (m - j) for j in range(m + 1))


def bernoulli_poly_numerators(m, D):
    """(L, [L * D^m * B_m(a / D) for a = 0 .. D]) in integers, L the lcm of
    the denominators of B_0 .. B_m: Horner's rule in a over the integer
    coefficients C(m, j) * L * B_j * D^j of a^(m - j)."""
    B = [bernoulli_number(j) for j in range(m + 1)]
    L = lcm(*(b.denominator for b in B))
    coeffs = [comb(m, j) * (L // b.denominator) * b.numerator * D ** j
              for j, b in enumerate(B)]
    values = []
    for a in range(D + 1):
        v = 0
        for c in coeffs:
            v = v * a + c
        values.append(v)
    return L, values


def generalized_bernoulli(m, d):
    """B_{m,chi} = |d|^(m-1) * sum_{a=1}^{|d|} chi(a) B_m(a/|d|), each
    B_m(a/|d|) from `bernoulli_poly_numerators` over L * |d|^m, so the
    whole sum is one fraction over L * |d|."""
    if not is_fundamental_discriminant(d):
        raise ValueError("%r is not a negative fundamental discriminant" % (d,))
    D = abs(d)
    L, values = bernoulli_poly_numerators(m, D)
    return Fraction(sum(kronecker_symbol(d, a) * values[a] for a in range(1, D + 1)),
                    L * D)


def quad_invariants(eta):
    """Content a = gcd(|x|,|y|,|z|), then -m_eta/a^2 = d*f^2 with d a negative
    fundamental discriminant; only defined on cone points."""
    if not is_positive(eta):
        raise ValueError("quad_invariants needs a positive index, got %r" % (eta,))
    a = gcd(gcd(abs(eta[0]), abs(eta[1])), abs(eta[2]))
    d, f = fundamental_discriminant_split(-norm_m(eta) // (a * a))
    return QuadInvariants(a, d, f)


def _valuations(n):
    """{p: v_p(n)} for each prime p | n >= 1, by dividing out each p from 2
    up in turn."""
    v, p = {}, 2
    while n > 1:
        while n % p == 0:
            v[p] = v.get(p, 0) + 1
            n //= p
        p += 1
    return v


def _prefactor(k, d):
    pref = Fraction(4 * k) * exactnum.generalized_bernoulli(k - 1, d) \
        / (bernoulli_number(k) * bernoulli_number(2 * k - 2))
    for p in (2, 3):
        pref *= Fraction(1, p ** (k - 1) - 1)
    return pref


def eisenstein_coefficient(k, eta):
    """Weight-k Eisenstein coefficient at the positive index eta for
    (D1, D2) = (1, 6): the prefactor of d times the local factor F_p of every
    p | a*f*6, each evaluated afresh.  B_{k-1,chi_d} is the library's,
    which test_kernels.py checks against the generalized_bernoulli above."""
    a, d, f = quad_invariants(eta)
    val = _prefactor(k, d)
    va, vf = _valuations(a), _valuations(f)
    for p in _valuations(a * f * 6):
        ap = va.get(p, 0)
        c = kronecker_symbol(d, p)
        if 6 % p == 0:
            Fp = sum(p ** ((2 * k - 3) * t) for t in range(ap + 1)) \
                - c * sum(p ** ((2 * k - 3) * t + k - 2) for t in range(ap))
        else:
            fp = vf.get(p, 0)
            Fp = 0
            for t in range(ap + 1):
                Fp += sum(p ** ((2 * k - 3) * l + (k - 1) * t)
                          for l in range(ap + fp - t + 1))
                Fp -= c * sum(p ** ((2 * k - 3) * l + (k - 1) * t + k - 2)
                              for l in range(ap + fp - t))
        val *= Fp
    return -val
