"""The weight-raising bracket of four forms: multilinearity, alternation,
and the product rule that makes multiplicatively dependent arguments vanish."""
from collections import Counter
from operator import mul

import pytest

from oracles import power
from qsiegel import diffop
from qsiegel.diffop import bracket
from qsiegel.fourier import linear_combine, multiply
from qsiegel.lattice import ZERO, mirror


@pytest.fixture(scope="module")
def forms(gens12):
    # E2, E4, chi5a, E6 are algebraically independent, so their bracket is
    # not identically zero; at grade 8 it has 4 nonzero coefficients
    return tuple(s.truncate(8) for s in (gens12.e2, gens12.e4, gens12.chi5a, gens12.e6))


def is_zero(s):
    return not s.coeffs


def test_weight_and_cuspidality(forms):
    br = bracket(*forms)
    assert br.weight == 2 + 4 + 5 + 6 + 3
    assert len(br.coeffs) == 4
    assert br.is_cusp()
    assert br.coeff(ZERO) == 0


def test_alternating_in_adjacent_arguments(forms):
    e2, e4, chi, e6 = forms
    base = bracket(e2, e4, chi, e6)
    assert not is_zero(base)
    for swapped in (bracket(e4, e2, chi, e6),
                    bracket(e2, chi, e4, e6),
                    bracket(e2, e4, e6, chi)):
        assert is_zero(linear_combine([(1, base), (1, swapped)]))


def test_repeated_argument_vanishes(forms):
    e2, e4, chi, e6 = forms
    assert is_zero(bracket(e2, e2, chi, e6))
    assert is_zero(bracket(e2, e4, chi, chi))


def test_linear_in_each_argument(forms):
    e2, e4, chi, e6 = forms
    e4b = multiply(e2, e2)
    base = bracket(e2, e4, chi, e6)
    assert not is_zero(base)
    lhs = bracket(e2, linear_combine([(3, e4), (-2, e4b)]), chi, e6)
    rhs = linear_combine([(3, base), (-2, bracket(e2, e4b, chi, e6))])
    assert lhs == rhs


def test_multiplicative_dependence_vanishes(forms):
    # the row of f^2 is 2f times the row of f, so any bracket containing
    # both f and f^2 has two proportional rows
    e2, e4, chi, e6 = forms
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


def test_bracket_of_even_forms_is_odd_on_the_symmetric_path(forms, parity_reads):
    # E2, E4, chi5a, E6 are iota-even and the row x + 2z is odd, so every
    # convolution gets a known sign and none sums the mirrored operands:
    # per side 3 even products W_r f * g and 1 odd, then 6 odd products of
    # minors, each pairing a minor with row x + 2z and one without; every
    # operand has a parity, so each product reads two, in operand order
    br = bracket(*forms)
    assert all(parity_reads) and len(parity_reads) == 2 * 14
    assert Counter(map(mul, parity_reads[::2], parity_reads[1::2])) == {1: 6, -1: 8}
    mir = mirror(br.prec)
    assert any(br.vec) and [br.vec[m] for m in mir] == [-v for v in br.vec]
