"""Eisenstein coefficients: the golden 24-row table for weights 2, 4, 6, the
invariant-dependence property, and input validation."""
import unittest
from fractions import Fraction as Fr

import oracles
from qsiegel.eisenstein import EisensteinParams, eisenstein_series
from qsiegel.lattice import ZERO, enumerate_cone

# (x, y, z) -> (E2, E4, E6) coefficient
GOLDEN = {
    (2, 1, -1): (Fr(48), Fr(960, 13), Fr(2016, 341)),
    (2, 0, -1): (Fr(72), Fr(2160, 13), Fr(7560, 341)),
    (4, 2, -2): (Fr(192), Fr(35520, 13), Fr(1066464, 341)),
    (4, 0, -2): (Fr(216), Fr(71280, 13), Fr(3878280, 341)),
    (4, 1, -2): (Fr(144), Fr(95040, 13), Fr(8134560, 341)),
    (5, 1, -2): (Fr(288), Fr(198720, 13), Fr(24101280, 341)),
    (6, 3, -3): (Fr(192), Fr(234240, 13), Fr(39682944, 341)),
    (6, 0, -3): (Fr(360), Fr(546480, 13), Fr(149423400, 341)),
    (6, 2, -3): (Fr(288), Fr(682560, 13), Fr(239023008, 341)),
    (6, 1, -3): (Fr(144), Fr(717120, 13), Fr(10348128, 11)),
    (8, 4, -4): (Fr(480), Fr(1141440, 13), Fr(546063840, 341)),
    (7, 2, -4): (Fr(288), Fr(1157760, 13), Fr(694612800, 341)),
    (7, 1, -4): (Fr(288), Fr(1304640, 13), Fr(778117536, 341)),
    (8, 0, -4): (Fr(504), Fr(2283120, 13), Fr(1985686920, 341)),
    (8, 3, -4): (Fr(144), Fr(2168640, 13), Fr(2360177568, 341)),
    (8, 1, -4): (Fr(336), Fr(3024960, 13), Fr(3938762016, 341)),
    (8, 2, -4): (Fr(576), Fr(3516480, 13), Fr(4303182240, 341)),
    (9, 3, -5): (Fr(576), Fr(4544640, 13), Fr(6765837120, 341)),
    (9, 1, -5): (Fr(288), Fr(371520), Fr(8301345696, 341)),
    (9, 2, -5): (Fr(288), Fr(4752000, 13), Fr(9366960960, 341)),
    (10, 2, -6): (Fr(864), Fr(6557760, 13), Fr(12363956640, 341)),
    (10, 0, -5): (Fr(720), Fr(6968160, 13), Fr(14784532560, 341)),
    (12, 6, -6): (Fr(768), Fr(8666880, 13), Fr(20992277376, 341)),
}


class GoldenTableTest(unittest.TestCase):
    def test_all_rows_all_columns(self):
        for col, k in enumerate((2, 4, 6)):
            s = eisenstein_series(EisensteinParams(k), 12)
            for eta, vals in GOLDEN.items():
                self.assertEqual(s.coeff(eta), vals[col], (k, eta))

    def test_constant_term_is_one(self):
        for k in (2, 4, 6, 8, 10):
            s = eisenstein_series(EisensteinParams(k), 4)
            self.assertEqual(s.coeff(ZERO), 1)

    def test_series_agrees_with_pointwise(self):
        s = eisenstein_series(EisensteinParams(4), 6)
        for eta in enumerate_cone(6):
            self.assertEqual(s.coeff(eta), oracles.eisenstein_coefficient(4, eta))


class InvariantStructureTest(unittest.TestCase):
    def test_coefficient_depends_only_on_invariants(self):
        # two indices with equal (content, discriminant, conductor) always
        # carry the same coefficient
        s = eisenstein_series(EisensteinParams(4), 8)
        by_inv = {}
        for eta in enumerate_cone(8):
            by_inv.setdefault(oracles.quad_invariants(eta), set()).add(s.coeff(eta))
        self.assertGreater(len(by_inv), 10)
        for inv, vals in by_inv.items():
            self.assertEqual(len(vals), 1, inv)

    def test_content_chain_for_discriminant_minus_three(self):
        # (a, d, f) = (a, -3, 1) for a = 1, 2, 3, 4, 6
        s = eisenstein_series(EisensteinParams(2), 12)
        chain = [(2, 1, -1), (4, 2, -2), (6, 3, -3), (8, 4, -4), (12, 6, -6)]
        values = [s.coeff(eta) for eta in chain]
        self.assertEqual(values, [48, 192, 192, 480, 768])

    def test_weight_two_integrality(self):
        s = eisenstein_series(EisensteinParams(2), 8)
        for eta in enumerate_cone(8):
            v = s.coeff(eta)
            self.assertEqual(v.denominator, 1, eta)
            self.assertEqual(v.numerator % 24, 0, eta)


class ValidationTest(unittest.TestCase):
    def test_odd_or_small_weight_rejected(self):
        self.assertRaises(ValueError, EisensteinParams, 3)
        self.assertRaises(ValueError, EisensteinParams, 0)


if __name__ == "__main__":
    unittest.main()
