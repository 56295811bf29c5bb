"""Generator construction: normalizations, the verification reports on an
honest build, their sensitivity to forged inputs, and monomial span ranks."""
from collections import Counter
from fractions import Fraction as Fr
from functools import reduce
from math import isqrt, prod

import pytest

import oracles
from qsiegel.dims import genfun_coeff
from qsiegel.fourier import FourierSeries, linear_combine, rank_of_span
from qsiegel.lattice import grade
from qsiegel import ring
from qsiegel.ring import (CHI5A_LEAD, GeneratorSet, five_generator_exponents,
                          monomial_basis, monomial_exponents,
                          verify_chi5_square_relations,
                          verify_polynomial_relations, verify_structure)

ATTRS = ("e2", "e4", "e6", "e8", "e10", "phi2", "phi4", "phi6", "phi8",
         "phi10", "chi5a", "chi5b", "chi15", "delta20a", "delta20b")


def forged(gens, **replacements):
    return GeneratorSet.from_records(gens.prec, {**gens.members(), **replacements})


def test_phi_normalizations():
    phis = GeneratorSet.build(6, upto="phi")
    phi2, phi4, phi6, phi8, phi10 = (phis.phi2, phis.phi4, phis.phi6,
                                     phis.phi8, phis.phi10)
    assert phi2.coeff((0, 0, 0)) == 1
    assert phi4.coeff((2, 1, -1)) == 1 and phi4.coeff((0, 0, 0)) == 0
    assert phi6.coeff((2, 0, -1)) == 1 and phi6.coeff((2, 1, -1)) == 0
    assert phi8.coeff((0, 0, 0)) == 138811
    assert phi10.coeff((4, 1, -2)) == 1 and phi10.coeff((4, 0, -2)) == 0
    assert phi10.coeff((2, 1, -1)) == 0 and phi10.coeff((2, 0, -1)) == 0


def test_phi_prec_validation():
    with pytest.raises(ValueError):
        GeneratorSet.build(3, upto="phi")
    with pytest.raises(ValueError):
        GeneratorSet.build(4)


def test_chi5_normalization_and_low_grades():
    chi5 = GeneratorSet.build(6, upto="chi5")
    chi5a, chi5b = chi5.chi5a, chi5.chi5b
    assert chi5a.weight == 5 and chi5b.weight == 5
    assert chi5a.is_cusp() and chi5b.is_cusp()
    assert chi5a.coeff((2, 0, -1)) == 1 and chi5a.coeff((2, 1, -1)) == 0
    assert chi5b.coeff((2, 1, -1)) == 1 and chi5b.coeff((2, 0, -1)) == 0
    # the four grade-3 values of each root
    assert [chi5a.coeff(e) for e in ((3, 0, -2), (3, 0, -1), (3, 1, -2), (3, 1, -1))] \
        == [0, 0, -1, -1]
    assert [chi5b.coeff(e) for e in ((3, 0, -2), (3, 0, -1), (3, 1, -2), (3, 1, -1))] \
        == [-1, -1, 0, 0]


def test_generator_set_members(gens12):
    assert gens12.prec == 12
    for name in ATTRS:
        s = getattr(gens12, name)
        assert s.prec == 12 and all(grade(e) <= 12 for e in s.coeffs)
    d = gens12.members()
    assert len(d) == 15 and d["E2"] is gens12.e2
    assert gens12.delta20a.weight == 20 and gens12.chi15.weight == 15


def test_chi15_normalization(gens12):
    assert gens12.chi15.coeff((5, 1, -2)) == 1
    assert gens12.chi15.coeff((2, 1, -1)) == 0
    assert gens12.chi15.is_cusp()


def test_verification_reports_pass(gens12):
    for rep in verify_chi5_square_relations(gens12) + verify_polynomial_relations(gens12):
        assert rep.ok, (rep.name, rep.mismatches[:3])


def test_square_relation_sensitive_to_perturbation(gens12):
    bump = dict(gens12.chi5a.coeffs)
    bump[(4, 0, -2)] = bump.get((4, 0, -2), Fr(0)) + 1
    bad_gens = forged(gens12, chi5a=FourierSeries(5, 12, bump))
    rep = verify_chi5_square_relations(bad_gens)[0]
    assert rep.name == "chi5a_sq_expansion" and not rep.ok
    assert rep.mismatches
    assert min(grade(e) for e, _ in rep.mismatches) == 6


def test_polynomial_relation_sensitive_to_rescaling(gens12):
    bad_gens = forged(gens12, chi15=linear_combine([(2, gens12.chi15)]))
    reports = {r.name: r for r in verify_polynomial_relations(bad_gens)}
    assert not reports["chi15_sq_identity"].ok
    assert not reports["chi15_sq_tabulated_scale"].ok
    assert reports["e8_in_lower_generators"].ok  # untouched by the forgery


def _is_rational_square(q):
    return q >= 0 and all(isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def test_relation_right_hand_sides_are_not_squares():
    # chi5b^2 = P1 and chi15^2 = P2 with P1, P2 in A = Q[E2, E4, chi5a, E6].
    # A is a UFD, so a P that is a square in Frac(A) takes a rational square
    # value at every integer point; one point where none of P1, P2, P1*P2 is
    # a square shows that 1, chi5b, chi15, chi5b*chi15 are independent over A.
    point = {"E2": -5, "E4": 9, "chi5a": -7, "E6": -1}
    terms = {name: terms for name, _scale, _lhs, terms in ring._relations()}
    p1, p2 = (sum(c * prod(point[f] ** n for f, n in powers) for c, powers in terms[name])
              for name in ("chi5_quintic", "chi15_sq_identity"))
    assert p1 == Fr(12229573, 254664)
    for value in (p1, p2, p1 * p2):
        assert not _is_rational_square(value), value


def test_monomial_exponent_count_matches_generating_function():
    for k in range(31):
        assert len(monomial_exponents(k)) == genfun_coeff(k), k


def test_five_generator_exponent_examples():
    assert five_generator_exponents(0) == [(0, 0, 0, 0, 0)]
    assert len(five_generator_exponents(15)) == 14
    assert len(five_generator_exponents(20)) == 34
    for a, b, c, d, e in five_generator_exponents(20):
        assert 2 * a + 4 * b + 5 * c + 5 * d + 6 * e == 20


def test_monomial_basis_small_weights(gens12):
    assert monomial_basis(0, gens12).rank == 1
    assert monomial_basis(1, gens12).rank == 0
    r10 = monomial_basis(10, gens12)
    assert r10.rank == r10.expected == 7
    assert r10.prec == 12  # no escalation was needed


def test_weight6_span(gens12):
    e2cubed = gens12.monomial((("E2", 3),))
    e2e4 = gens12.monomial((("E2", 1), ("E4", 1)))
    assert rank_of_span([e2cubed, e2e4, gens12.e6]) == 3


def test_build_rejects_companion_mismatch(monkeypatch):
    exact = ring.divide_exact

    def perturbed(g, b, lead):
        q = exact(g, b, lead)
        if lead == CHI5A_LEAD:  # the companion quotient delta20b / chi5a
            q = linear_combine([(1, q), (1, FourierSeries(q.weight, q.prec,
                                                          {(4, 1, -2): 1}))])
        return q

    monkeypatch.setattr(ring, "divide_exact", perturbed)
    with pytest.raises(ValueError, match="companion"):
        GeneratorSet.build(6)


def test_structure_at_prec_8_escalates_to_a_pass():
    report = verify_structure(20, GeneratorSet.build(8))
    row = next(r for r in report.rows if r.name == "w20_five_generators")
    assert (row.rank, row.expected) == (26, 26)
    assert report.ok


def test_zero_delta20a_fails_the_independence_check(gens12, monkeypatch):
    last = verify_structure(0, gens12).rows[-1]
    assert last.name == ring.INDEPENDENCE[0] and (last.prec, last.ok) == (12, True)
    zero = forged(gens12, delta20a=FourierSeries(20, 12, {}))
    # every grade of the forged set says the same: deeper() rebuilds nothing
    monkeypatch.setattr(GeneratorSet, "deeper", lambda self: self)
    report = verify_structure(0, zero)
    last = report.rows[-1]
    assert last.name == ring.INDEPENDENCE[0] and (last.prec, last.ok) == (12, False)
    assert not report.ok


def test_structure_fails_on_the_independence_check_alone(gens12, monkeypatch):
    # the zero delta20a above also shortens w20_with_deltas; here every rank
    # matches and only the independence row, left with nothing to span, is short
    name, _, expected = ring.INDEPENDENCE
    monkeypatch.setattr(ring, "INDEPENDENCE", (name, (), expected))
    report = verify_structure(5, gens12)
    *rows, last = report.rows
    assert all(row.ok for row in rows) and all(r.rank == r.expected for r in rows)
    assert last.name == name and (last.prec, last.ok) == (12, False)
    assert not report.ok


def test_monomial_basis_walks_past_two_rebuilds():
    # weight 26 first reaches full rank at grade 14, three rebuilds above 8
    report = monomial_basis(26, GeneratorSet.build(8))
    assert report.rank == report.expected == 53
    assert report.prec == 14 and report.ok


def test_structure_forms_each_monomial_once_per_grade(gens12, monkeypatch):
    # keyed by content, not id, so that a product formed again is caught
    operands = Counter()
    multiply = ring.multiply

    def counted(a, b):
        operands[tuple((s.weight, s.prec, s.den, tuple(s.vec)) for s in (a, b))] += 1
        return multiply(a, b)

    monkeypatch.setattr(ring, "multiply", counted)
    gens = forged(gens12)  # the members of gens12 and an empty product cache
    # weights 10, 15 and 20 share monomials with the augmentation rows and the
    # relations, and every product shares its prefix with others
    assert verify_structure(20, gens).ok
    assert all(rep.ok for rep in verify_chi5_square_relations(gens)
               + verify_polynomial_relations(gens))
    assert operands and max(operands.values()) == 1


def test_stages_build_on_each_other(gens12):
    chi5 = GeneratorSet.build(12, upto="chi5")
    assert chi5.stage == "chi5" and len(chi5.members()) == 12
    assert chi5.members() == {f: s for f, s in gens12.members().items()
                              if f in chi5.members()}
    with pytest.raises(ValueError, match="stage"):
        GeneratorSet.build(8, upto="chi7")


def test_from_records_validates(gens12):
    forms = gens12.members()
    assert GeneratorSet.from_records(12, forms).members() == forms
    del forms["delta20b"]
    with pytest.raises(ValueError, match="one stage"):
        GeneratorSet.from_records(12, forms)
    with pytest.raises(ValueError, match="prec"):
        forged(gens12, chi15=gens12.chi15.truncate(10))
    with pytest.raises(ValueError, match="weight"):
        forged(gens12, E4=gens12.e6)
    with pytest.raises(ValueError, match="prec must be >= 5"):
        GeneratorSet.from_records(4, {f: s.truncate(4)
                                      for f, s in gens12.members().items()})


def test_monomial_skips_zero_exponents(gens12):
    assert gens12.monomial((("E2", 0), ("E4", 0))) == gens12.monomial(()) \
        == FourierSeries(0, 12, {(0, 0, 0): 1})
    assert gens12.monomial((("E2", 0), ("E4", 2))) is gens12.monomial((("E4", 2),))


def test_monomial_ignores_order_and_caches():
    gens = GeneratorSet.build(6)
    powers = (("E2", 2), ("chi5a", 1), ("E4", 1))
    mon = gens.monomial(powers)
    assert gens.monomial(iter((("E6", 0),) + powers[::-1])) is mon
    assert gens.monomial((("E4", 1), ("E2", 2), ("chi15", 0), ("chi5a", 1))) is mon
    want = oracles.multiply(oracles.multiply(oracles.multiply(gens.e2, gens.e2),
                                             gens.e4), gens.chi5a)
    assert mon == want and mon.weight == 13


@pytest.mark.deep
def test_structure_to_weight_30_passes(gens12):
    assert verify_structure(30, gens12).ok


def test_build_keeps_every_product_it_forms(monkeypatch):
    # keyed by content, as in test_structure_forms_each_monomial_once_per_grade
    operands = Counter()
    multiply = ring.multiply

    def counted(a, b):
        operands[tuple((s.weight, s.prec, s.den, tuple(s.vec)) for s in (a, b))] += 1
        return multiply(a, b)

    monkeypatch.setattr(ring, "multiply", counted)
    gens = GeneratorSet.build(6)
    assert operands and max(operands.values()) == 1
    # every multiply made a cache entry that is not a bare member
    assert sum(operands.values()) == sum(len(key) > 1 or key[0][1] > 1
                                         for key in gens._products)
    members = gens.members()
    for key, product in gens._products.items():
        factors = [members[form] for form, n in key for _ in range(n)]
        assert product == reduce(oracles.multiply, factors), key
    assert {(("E2", n),) for n in range(1, 6)} <= set(gens._products)
    operands.clear()
    assert all(rep.ok for rep in verify_chi5_square_relations(gens)
               + verify_polynomial_relations(gens))
    # 105 products, less E2^2 .. E2^5, which build kept
    assert sum(operands.values()) == 101


@pytest.mark.parametrize("upto", ["phi", "chi5", "chi15"])
def test_built_members_are_their_own_product_entries(upto):
    gens = GeneratorSet.build(6, upto)
    for form in ("E2", "phi4", "phi6"):
        assert gens.monomial(((form, 1),)) is getattr(gens, form.lower())


def test_structure_rows_start_where_the_row_before_reached_its_rank(monkeypatch):
    gens = GeneratorSet.build(8)
    formed = Counter()
    multiply = ring.multiply

    def counted(a, b):
        product = multiply(a, b)
        formed[product.weight, product.prec] += 1
        return product

    monkeypatch.setattr(ring, "multiply", counted)
    report = verify_structure(20, gens)
    # weight 18 first reaches its rank at grade 10, so weight 19 starts there
    assert report.ok and report.rows[18].prec == report.rows[19].prec == 10
    assert formed[19, 8] == 0 and formed[19, 10] > 0


def test_build_rejects_grades_past_the_kernel(monkeypatch):
    monkeypatch.setattr(ring, "eisenstein_series", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match="grade 83"):
        GeneratorSet.build(79)
    with pytest.raises(ValueError, match="grade 84"):
        GeneratorSet.build(82, upto="chi5")
