"""High-precision uniqueness of the weight-30 expression for chi15^2.

chi15^2 is a polynomial in E2, E4, E6, chi5a alone, even in chi5a.  There are
47 candidate monomials E2^a E4^b E6^c chi5a^e (2a+4b+6c+5e = 30, e even); at
grade precision 14 they have full rank 47, so the expansion of chi15^2 over
them is unique and must coincide with the corrected tabulated coefficients.
Slower than the rest of the suite.
"""
import pytest

from qsiegel.fourier import multiply, rank_of_span, relation_nullspace
from qsiegel.ring import CHI15_SQ_SCALE, CHI15_SQ_TABULATED, GeneratorSet

pytestmark = pytest.mark.deep


def pure_exponents(weight):
    """(a, b, c, e) with 2a+4b+6c+5e = weight and e even."""
    out = []
    for e in range(0, weight // 5 + 1, 2):
        for c in range((weight - 5 * e) // 6 + 1):
            for b in range((weight - 5 * e - 6 * c) // 4 + 1):
                rem = weight - 5 * e - 6 * c - 4 * b
                if rem % 2 == 0:
                    out.append((rem // 2, b, c, e))
    return out


@pytest.fixture(scope="module")
def gens14():
    return GeneratorSet.build(14)


def test_chi15_square_expansion_is_unique(gens14):
    expos = pure_exponents(30)
    assert len(expos) == 47

    mons = [gens14.monomial(zip(("E2", "E4", "E6", "chi5a"), t)) for t in expos]
    assert rank_of_span(mons) == 47

    chi15_sq = multiply(gens14.chi15, gens14.chi15)
    null = relation_nullspace(mons + [chi15_sq])
    assert len(null) == 1
    v = null[0]
    assert v[-1] != 0
    solution = {expos[i]: -v[i] / v[-1] for i in range(47) if v[i]}

    expected = {(a, b, c, e): coeff / CHI15_SQ_SCALE
                for coeff, a, b, c, e in CHI15_SQ_TABULATED}
    assert len(expected) == 45  # two of the 47 candidates do not occur
    assert solution == expected
