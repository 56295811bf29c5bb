"""Number-theory helpers: Bernoulli numbers, Kronecker symbols, discriminants."""
import unittest
from fractions import Fraction as Fr

from oracles import bernoulli_poly_value
from qsiegel.exactnum import (bernoulli_number, factorize,
                              fundamental_discriminant_split,
                              generalized_bernoulli, is_fundamental_discriminant,
                              kronecker_symbol, p_valuation, prime_divisors)


class BernoulliTest(unittest.TestCase):
    def test_first_values(self):
        self.assertEqual(bernoulli_number(0), 1)
        self.assertEqual(bernoulli_number(1), Fr(-1, 2))
        self.assertEqual(bernoulli_number(2), Fr(1, 6))
        self.assertEqual(bernoulli_number(4), Fr(-1, 30))
        self.assertEqual(bernoulli_number(12), Fr(-691, 2730))
        for m in range(3, 31, 2):
            self.assertEqual(bernoulli_number(m), 0)
        self.assertRaises(ValueError, bernoulli_number, -1)

    def test_even_indices_against_sympy(self):
        # sympy changed its B_1 convention to +1/2 in recent releases, so
        # compare only the even indices, where there is no ambiguity.
        from sympy import bernoulli
        for m in range(0, 42, 2):
            want = bernoulli(m)
            self.assertEqual(bernoulli_number(m), Fr(int(want.p), int(want.q)))

    def test_polynomial_values_against_sympy(self):
        from sympy import Rational, bernoulli
        for m in range(0, 12):
            for t in (Fr(0), Fr(1), Fr(1, 2), Fr(2, 3), Fr(-3, 5)):
                want = bernoulli(m, Rational(t.numerator, t.denominator))
                self.assertEqual(bernoulli_poly_value(m, t),
                                 Fr(int(want.p), int(want.q)))

    def test_sum_of_powers(self):
        # sum_{j<n} j^m == (B_{m+1}(n) - B_{m+1}(0)) / (m+1)
        for m in range(0, 6):
            for n in range(0, 8):
                lhs = sum(Fr(j) ** m for j in range(n))
                rhs = (bernoulli_poly_value(m + 1, Fr(n))
                       - bernoulli_poly_value(m + 1, Fr(0))) / (m + 1)
                self.assertEqual(lhs, rhs)


class KroneckerTest(unittest.TestCase):
    def test_jacobi_agreement(self):
        from sympy import jacobi_symbol
        for d in range(-30, 31):
            for n in range(1, 30, 2):
                self.assertEqual(kronecker_symbol(d, n), jacobi_symbol(d, n),
                                 (d, n))

    def test_at_two(self):
        # (d/2) is 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
        self.assertEqual(kronecker_symbol(-4, 2), 0)
        self.assertEqual(kronecker_symbol(-8, 2), 0)
        self.assertEqual(kronecker_symbol(-7, 2), 1)
        self.assertEqual(kronecker_symbol(-3, 2), -1)
        self.assertEqual(kronecker_symbol(17, 2), 1)
        self.assertEqual(kronecker_symbol(-11, 2), -1)

    def test_completely_multiplicative_in_n(self):
        for d in (-3, -4, -8, -15, -20):
            for m in range(1, 12):
                for n in range(1, 12):
                    self.assertEqual(kronecker_symbol(d, m * n),
                                     kronecker_symbol(d, m) * kronecker_symbol(d, n))

    def test_n_zero_and_one(self):
        self.assertEqual(kronecker_symbol(1, 0), 1)
        self.assertEqual(kronecker_symbol(-1, 0), 1)
        self.assertEqual(kronecker_symbol(-3, 0), 0)
        self.assertEqual(kronecker_symbol(-3, 1), 1)


class DiscriminantTest(unittest.TestCase):
    def test_split_round_trip(self):
        for d in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24):
            self.assertTrue(is_fundamental_discriminant(d), d)
            for f in range(1, 7):
                self.assertEqual(fundamental_discriminant_split(d * f * f), (d, f))

    def test_rejects(self):
        self.assertRaises(ValueError, fundamental_discriminant_split, 5)
        self.assertRaises(ValueError, fundamental_discriminant_split, 0)
        self.assertRaises(ValueError, fundamental_discriminant_split, -2)
        self.assertRaises(ValueError, fundamental_discriminant_split, -5)

    def test_not_fundamental(self):
        for d in (-9, -12, -16, -27, 0, 2, -2):
            self.assertFalse(is_fundamental_discriminant(d), d)


class GeneralizedBernoulliTest(unittest.TestCase):
    def test_known_first_values(self):
        self.assertEqual(generalized_bernoulli(1, -3), Fr(-1, 3))
        self.assertEqual(generalized_bernoulli(1, -4), Fr(-1, 2))
        self.assertEqual(generalized_bernoulli(3, -3), Fr(2, 3))
        self.assertEqual(generalized_bernoulli(3, -4), Fr(3, 2))

    def test_parity_vanishing(self):
        # chi_d odd for d < 0: B_{m,chi} = 0 for even m >= 2
        for d in (-3, -4, -7, -8):
            for m in (2, 4, 6):
                self.assertEqual(generalized_bernoulli(m, d), 0)

    def test_rejects_non_fundamental(self):
        self.assertRaises(ValueError, generalized_bernoulli, 1, -12)


class FactorTest(unittest.TestCase):
    def test_factorize(self):
        self.assertEqual(factorize(1), {})
        self.assertEqual(factorize(12), {2: 2, 3: 1})
        self.assertEqual(factorize(97), {97: 1})
        self.assertEqual(factorize(2 * 2 * 3 * 5 * 5 * 13), {2: 2, 3: 1, 5: 2, 13: 1})

    def test_prime_divisors(self):
        self.assertEqual(prime_divisors(360), [2, 3, 5])
        self.assertEqual(prime_divisors(1), [])

    def test_p_valuation(self):
        self.assertEqual(p_valuation(2, 48), 4)
        self.assertEqual(p_valuation(3, 48), 1)
        self.assertEqual(p_valuation(5, 48), 0)
        self.assertRaises(ValueError, p_valuation, 2, 0)


if __name__ == "__main__":
    unittest.main()
