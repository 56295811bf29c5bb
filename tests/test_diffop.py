"""The weight-raising bracket of four forms: multilinearity, alternation,
and the product rule that makes multiplicatively dependent arguments vanish."""
import pytest

from oracles import power
from qsiegel import diffop, fourier
from qsiegel.diffop import bracket
from qsiegel.eisenstein import EisensteinParams, eisenstein_series
from qsiegel.fourier import linear_combine, multiply
from qsiegel.lattice import ZERO


@pytest.fixture(scope="module")
def forms():
    X = 6
    e2 = eisenstein_series(EisensteinParams(2), X)
    e4 = eisenstein_series(EisensteinParams(4), X)
    e6 = eisenstein_series(EisensteinParams(6), X)
    e8 = eisenstein_series(EisensteinParams(8), X)
    return e2, e4, e6, e8


def is_zero(s):
    return not s.coeffs


def test_weight_and_cuspidality(forms):
    e2, e4, e6, e8 = forms
    br = bracket(e2, e4, e6, e8)
    assert br.weight == 2 + 4 + 6 + 8 + 3
    assert br.is_cusp()
    assert br.coeff(ZERO) == 0


def test_alternating_in_adjacent_arguments(forms):
    e2, e4, e6, e8 = forms
    base = bracket(e2, e4, e6, e8)
    for swapped in (bracket(e4, e2, e6, e8),
                    bracket(e2, e6, e4, e8),
                    bracket(e2, e4, e8, e6)):
        assert is_zero(linear_combine([(1, base), (1, swapped)]))


def test_repeated_argument_vanishes(forms):
    e2, e4, e6, e8 = forms
    assert is_zero(bracket(e2, e2, e6, e8))
    assert is_zero(bracket(e2, e4, e6, e6))


def test_linear_in_each_argument(forms):
    e2, e4, e6, e8 = forms
    e4b = multiply(e2, e2)
    lhs = bracket(e2, linear_combine([(3, e4), (-2, e4b)]), e6, e8)
    rhs = linear_combine([(3, bracket(e2, e4, e6, e8)),
                          (-2, bracket(e2, e4b, e6, e8))])
    assert lhs == rhs


def test_multiplicative_dependence_vanishes(forms):
    # the row of f^2 is 2f times the row of f, so any bracket containing
    # both f and f^2 has two proportional rows
    e2, e4, e6, e8 = forms
    assert is_zero(bracket(e2, power(e2, 2), e4, e6))
    assert is_zero(bracket(e2, e4, multiply(e2, e4), e6))


def counted(monkeypatch, module, name):
    """The list that collects the arguments of each call of module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_bracket_makes_14_convolutions(forms, monkeypatch):
    # 4 products W_r f * g per side of the Laplace expansion, 6 products of
    # minors; the oracle tests in test_kernels.py check the values
    calls = counted(monkeypatch, diffop, "product")
    bracket(*forms)
    assert len(calls) == 14


def test_bracket_of_even_forms_is_odd_on_the_symmetric_path(gens12, monkeypatch):
    # E2, E4, chi5a, E6 are iota-even; every row scaling keeps a parity, so
    # all 14 convolutions run by orbits and none on the full kernel
    args = [s.truncate(8) for s in (gens12.e2, gens12.e4, gens12.chi5a, gens12.e6)]
    full = counted(monkeypatch, fourier, "convolve")
    orbits = counted(monkeypatch, fourier, "_convolve_orbits")
    br = bracket(*args)
    assert (len(orbits), len(full)) == (14, 0)
    mir = fourier.mirror(br.prec)
    assert any(br.vec) and [br.vec[m] for m in mir] == [-v for v in br.vec]
