"""The four-argument determinant bracket on Fourier expansions.

{f1,f2,f3,f4} maps forms of weights k1..k4 to a cusp series of weight
k1+k2+k3+k4+3.  On coefficients it is a convolution over 4-part
decompositions of the target index, weighted by the 4x4 determinant with rows
(k1..k4), (x1..x4), (y1..y4), (z1..z4).  Differentiation in the analytic
picture multiplies coefficients by the frequency vector, a fixed invertible
linear image of (x, y, z); by multilinearity the coordinate-row determinant
used here differs from the analytic bracket only by one fixed nonzero scalar,
so divisibility, vanishing and span statements are unaffected.

It is evaluated with the last row replaced by (x1 + 2z1 .. x4 + 2z4), which
doubles the determinant; the factor 2 goes into the denominator.  Under the
reflection iota(x, y, z) = (x, y, -x - z), which keeps grade and norm,
x + 2z changes sign while k, x and y do not, so every row scaling below maps
an iota-even or iota-odd series to one again, and on such inputs every
product below is summed once per orbit by `fourier.product`.

The determinant is expanded by Laplace along the column split (f1, f2) |
(f3, f4).  Let W_r f scale each coefficient of f by the entry of row r: the
weight k for row k (r = 0), the index coordinate x or y for rows 1, 2, and
x + 2z for row 3.  The 2x2 minors

    M_rs(f, g) = W_r f * W_s g - W_s f * W_r g     (r < s)

are products of series, and the bracket is

    sum over r < s of (-1)^(r+s+1) M_rs(f1, f2) * M_pq(f3, f4),

with {p, q} the two rows other than r, s.  Every W_r is a derivation of the
product: weights add under multiplication, and so do index coordinates.
Hence, with v_r = W_r f * g,

    M_rs(f, g) = W_s v_r - W_r v_s,

where W_0 scales v_r by f.weight + g.weight.  That is 4 convolutions per
side and 6 for the products of minors: 14 integer convolutions by
`fourier.product`, over twice the product of the inputs' denominators.
"""
from itertools import combinations

from .fourier import FourierSeries, product
from .lattice import positions

ROWS = (0, 1, 2, 3)


def _rows(weight, idx):
    """The determinant's row entries (weight, x, y, x + 2z) at each position."""
    return [(weight, x, y, x + 2 * z) for x, y, z in idx]


def _minors(f, g, X, idx):
    """{(r, s): M_rs(f, g)} for every row pair r < s, over f.den * g.den,
    as W_s v_r - W_r v_s from the four products v_r = W_r f * g."""
    rows_f = _rows(f.weight, idx)
    v = [product([e[r] * c for e, c in zip(rows_f, f.vec)], g.vec, 0, X) for r in ROWS]
    rows_v = _rows(f.weight + g.weight, idx)
    return {(r, s): [e[s] * a - e[r] * b for e, a, b in zip(rows_v, v[r], v[s])]
            for r, s in combinations(ROWS, 2)}


def bracket(f1, f2, f3, f4):
    """Determinant bracket of four series; output weight sum(k_i) + 3, output
    precision the minimum input precision, constant term 0 by construction."""
    fs = (f1, f2, f3, f4)
    X = min(f.prec for f in fs)
    idx = positions(X)
    left = _minors(f1, f2, X, idx)
    right = _minors(f3, f4, X, idx)
    total = [0] * len(idx)
    for (r, s), m in left.items():
        p, q = (t for t in ROWS if t not in (r, s))
        sign = -1 if (r + s) % 2 == 0 else 1
        for n, v in enumerate(product(m, right[p, q], 0, X)):
            total[n] += sign * v
    return FourierSeries.from_vector(sum(f.weight for f in fs) + 3, X,
                                     2 * f1.den * f2.den * f3.den * f4.den, total)
