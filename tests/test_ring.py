"""Generator construction: normalizations, the verification reports on an
honest build, their sensitivity to forged inputs, and monomial span ranks."""
from collections import Counter
from fractions import Fraction as Fr
import json
from math import isqrt, prod
import os
import re

import pytest

import oracles
from qsiegel.cli import FIXTURE_DIR, _descriptor_powers, verify_suite
from qsiegel.dims import genfun_coeff
from qsiegel.fourier import (FourierSeries, linear_combine, rank_of_span,
                             relation_nullspace)
from qsiegel.lattice import MAX_GRADE, ZERO, grade
from qsiegel import ring
from qsiegel.forms import FORMS, STAGES, check_prec
from qsiegel.ring import (CHI5_QUINTIC, CHI5A_LEAD, CHI5A_SQ_EXPANSION, CHI5B_LEAD,
                          CHI5B_SQ_EXPANSION, FIVE_GENERATORS, W10_MONOMIALS,
                          GeneratorSet, monomial_basis, monomials,
                          verify_chi5_square_relations,
                          verify_polynomial_relations, verify_structure,
                          weight_basis)

ATTRS = ("e2", "e4", "e6", "e8", "e10", "phi2", "phi4", "phi6", "phi8",
         "phi10", "chi5a", "chi5b", "chi15", "delta20a", "delta20b")


def assembled(gens, **replacements):
    """gens with members replaced, unchecked."""
    return GeneratorSet._assemble(gens.prec, gens.stage, {**gens.members(), **replacements})


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
    for prec in (8.0, float("nan")):
        with pytest.raises(ValueError, match="prec must be an int, got"):
            GeneratorSet.build(prec)
    for prec in (12.0, float("nan"), True):
        with pytest.raises(ValueError, match="prec must be an int, got"):
            check_prec(prec, "chi15")


def test_chi15_floor_is_the_grade_of_its_unit_index():
    floor = grade(ring.CHI15_UNIT_INDEX)
    assert check_prec(floor, "chi15") == floor + 4
    with pytest.raises(ValueError, match="prec must be >= %d " % floor):
        check_prec(floor - 1, "chi15")


def test_chi5_normalization_and_low_grades():
    chi5 = GeneratorSet.build(6, upto="chi5")
    chi5a, chi5b = chi5.chi5a, chi5.chi5b
    assert chi5a.weight == 5 and chi5b.weight == 5
    assert chi5a.coeff(ZERO) == 0 and chi5b.coeff(ZERO) == 0
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
    assert gens12.chi15.coeff(ZERO) == 0


def test_verification_reports_pass(gens12):
    for rep in verify_chi5_square_relations(gens12) + verify_polynomial_relations(gens12):
        assert rep.ok, (rep.name, rep.mismatches[:3])


def test_square_relation_sensitive_to_perturbation(gens12):
    bump = dict(gens12.chi5a.coeffs)
    bump[(4, 0, -2)] = bump.get((4, 0, -2), Fr(0)) + 1
    rep = verify_chi5_square_relations(assembled(gens12, chi5a=FourierSeries(5, 12, bump)))[0]
    assert rep.name == "chi5a_sq_expansion" and not rep.ok and rep.mismatches
    assert min(grade(e) for e, _ in rep.mismatches) == 6


def test_polynomial_relation_sensitive_to_rescaling(gens12):
    bad_gens = assembled(gens12, chi15=linear_combine([(2, gens12.chi15)]))
    reports = {r.name: r for r in verify_polynomial_relations(bad_gens)}
    assert not reports["chi15_sq_identity"].ok
    assert not reports["chi15_sq_tabulated_scale"].ok
    assert reports["e8_in_lower_generators"].ok  # untouched by the forgery


def test_chi15_sq_table_is_pinned_only_from_prec_14(gens12):
    # the identity's 47 weight-30 monomials in E2, E4, E6, chi5a have rank 41
    # at grade 12 and 47 at grade 14: a table moved along any of their grade-12
    # relations passes at verify's default prec 12 and fails at 14
    mons = monomials(30, ring.E_GENERATORS + ("chi5a",))
    null = relation_nullspace([gens12.monomial(m) for m in mons])
    assert (len(mons), len(null)) == (47, 6)
    name, scale, lhs, terms = ring._relations()[4]
    assert name == "chi15_sq_identity"
    record = [(name, scale, lhs, terms + list(zip(null[0], mons)))]
    assert ring._check_relations(gens12, record)[0].ok
    assert not ring._check_relations(GeneratorSet.build(14), record)[0].ok


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


def test_weight_10_tables_agree_with_each_other():
    # chi5a^2 and chi5b^2 share their E10 coefficient, and their difference
    # on the other five W10_MONOMIALS is the quintic's coefficient there
    assert CHI5A_SQ_EXPANSION[0] == CHI5B_SQ_EXPANSION[0], W10_MONOMIALS[0]
    for i, mon in enumerate(W10_MONOMIALS[1:]):
        assert CHI5_QUINTIC[i] == CHI5B_SQ_EXPANSION[i + 1] - CHI5A_SQ_EXPANSION[i + 1], mon


def _weight(monomial):
    return sum(FORMS[form][1] * n for form, n in monomial)


def test_weight_basis_count_matches_generating_function():
    for k in range(31):
        assert len(weight_basis(k)) == genfun_coeff(k), k


def test_weight_basis_monomials_are_distinct_and_of_weight_k():
    for k in range(31):
        basis = weight_basis(k)
        keys = {tuple(sorted((f, n) for f, n in mon if n)) for mon in basis}
        assert len(keys) == len(basis), k
        assert all(_weight(mon) == k for mon in basis), k


def test_weight_basis_series_are_integral():
    # The ranks cannot tell two generator sets of one algebra apart; the
    # heights can: over phi4 and phi6 every weight row is integral.
    gens = GeneratorSet.build(8)
    for k in range(41):
        assert all(gens.monomial(mon).den == 1 for mon in weight_basis(k)), k


def test_five_generator_monomial_examples():
    for k, count in ((0, 1), (15, 14), (20, 34)):
        mons = monomials(k, FIVE_GENERATORS)
        assert len(mons) == count and all(_weight(mon) == k for mon in mons), k


def test_monomial_basis_small_weights(gens12):
    assert monomial_basis(0, gens12).rank == 1
    assert monomial_basis(1, gens12).rank == 0
    r10 = monomial_basis(10, gens12)
    assert r10.rank == r10.expected == 7
    assert r10.prec == 12  # ranked on the set it is given


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


def test_build_rejects_a_quotient_vanishing_at_the_unit_index(monkeypatch):
    exact = ring.divide_exact
    monkeypatch.setattr(ring, "divide_exact",
                        lambda g, b, lead: linear_combine([(0, exact(g, b, lead))]))
    with pytest.raises(ValueError, match="bracket quotient vanishes at the unit index"):
        GeneratorSet.build(6)


def test_structure_at_prec_8_escalates_to_a_pass():
    report = verify_structure(20, GeneratorSet.build(8))
    row = next(r for r in report.rows if r.name == "w20_five_generators")
    assert (row.rank, row.expected) == (26, 26)
    assert report.ok


def test_zero_delta20a_fails_the_independence_check(gens12):
    last = verify_structure(0, gens12).rows[-1]
    assert last.name == ring.INDEPENDENCE[0] and (last.prec, last.ok) == (12, True)
    report = verify_structure(0, assembled(gens12, delta20a=FourierSeries(20, 12, {})))
    last = report.rows[-1]
    assert last.name == ring.INDEPENDENCE[0] and (last.prec, last.ok) == (12, False)
    assert not report.ok


def test_structure_fails_on_the_independence_check_alone(gens12, monkeypatch):
    # the zero delta20a above also shortens w20_with_deltas; here every rank
    # matches and only the independence row, left with nothing to span, is short
    name, _, expected, stated = ring.INDEPENDENCE
    monkeypatch.setattr(ring, "INDEPENDENCE", (name, (), expected, stated))
    report = verify_structure(5, gens12)
    *rows, last = report.rows
    assert all(row.ok for row in rows) and all(r.rank == r.expected for r in rows)
    assert last.name == name and (last.prec, last.ok) == (12, False)
    assert not report.ok


def test_weight_rows_are_full_at_their_stated_grade_and_short_below():
    # the stated grades are tight: weight 26 has rank 53 at grade 13 and 52 at 12
    gens = GeneratorSet.build(13)
    assert ring._stated_grade(26) == 13
    assert monomial_basis(26, gens) == ring.SpanRow("weight 26", 53, 53, 13, True)
    assert monomial_basis(26, gens._cut(12)) == ring.SpanRow("weight 26", 52, 53, 12, False)


def test_structure_forms_each_monomial_once_per_grade(gens12, monkeypatch):
    # keyed by content, not id, so that a product formed again is caught
    operands = Counter()
    multiply = ring.multiply

    def counted(a, b):
        operands[tuple((s.weight, s.prec, s.den, tuple(s.vec)) for s in (a, b))] += 1
        return multiply(a, b)

    monkeypatch.setattr(ring, "multiply", counted)
    gens = GeneratorSet.build(12)  # an empty product cache; build's products count too
    # weights 10, 15 and 20 share monomials with the augmentation rows, the
    # relations and the tables, whose columns name phi2, and every product
    # shares its prefix with others
    assert verify_structure(20, gens).ok
    assert all(rep.ok for rep in verify_chi5_square_relations(gens)
               + verify_polynomial_relations(gens))
    assert verify_suite("tables", gens, 20)[1]
    assert operands and max(operands.values()) == 1


def test_structure_forms_products_of_one_generator_family(monkeypatch):
    # E4, E6 and E10 products belong to the relations suite, whose tables
    # are indexed by them; no set the structure suite ranks on forms any
    ranked_on, span_rank = {}, ring._span_rank

    def recording(name, monomials, expected, gens):
        ranked_on[id(gens)] = gens
        return span_rank(name, monomials, expected, gens)

    monkeypatch.setattr(ring, "_span_rank", recording)
    assert verify_structure(20, GeneratorSet.build(8)).ok
    assert sorted(s.prec for s in ranked_on.values()) == [8, 10]
    for s in ranked_on.values():
        # build and _cut return each set with an empty cache, so every key is the suite's
        named = {form for key in s._products for form, _ in key}
        assert named and not named & {"E4", "E6", "E10"}, (s.prec, named)


def test_w10_rows_are_the_weight_10_table_columns(gens12):
    # the same products as the paper's weight-10 table, in its order, and
    # the same span as W10_MONOMIALS: the rows' ranks cannot tell them apart
    (_, w10, six, _), (_, w10_ab, seven, _) = ring._span_checks()[:2]
    with open(os.path.join(FIXTURE_DIR, "products_weight10.json")) as fh:
        table = json.load(fh)
    assert [gens12.monomial(m) for m in w10] == [
        gens12.monomial(_descriptor_powers(d)) for d in table["columns"]]
    both = [gens12.monomial(m) for m in W10_MONOMIALS + tuple(w10)]
    assert rank_of_span(both) == six == 6
    chi5ab = (("chi5a", 1), ("chi5b", 1))
    assert w10_ab == w10 + [chi5ab]
    assert rank_of_span(both + [gens12.monomial(chi5ab)]) == seven == 7


def test_stages_build_on_each_other(gens12):
    chi5 = GeneratorSet.build(12, upto="chi5")
    assert chi5.stage == "chi5" and len(chi5.members()) == 12
    assert chi5.members() == {f: s for f, s in gens12.members().items()
                              if f in chi5.members()}
    with pytest.raises(ValueError, match="stage"):
        GeneratorSet.build(8, upto="chi7")


@pytest.mark.parametrize("stage", STAGES)
def test_a_deeper_build_cut_to_prec_is_the_build_at_prec(stage):
    # verify_structure ranks rows on cuts of one deeper build, and reads
    # each as the build at the cut's grade
    for prec in (6, 11):
        deeper = GeneratorSet.build(prec + 2, stage)
        cut = deeper._cut(prec)
        assert (cut.prec, cut.stage, cut._products) == (prec, stage, {})
        assert cut.members() == GeneratorSet.build(prec, stage).members()


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


def test_structure_to_weight_30_passes(gens12):
    assert verify_structure(30, gens12).ok


def test_build_forms_each_of_its_products_once(monkeypatch):
    # keyed by content, as in test_structure_forms_each_monomial_once_per_grade
    operands = Counter()
    multiply = ring.multiply

    def counted(a, b):
        operands[tuple((s.weight, s.prec, s.den, tuple(s.vec)) for s in (a, b))] += 1
        return multiply(a, b)

    monkeypatch.setattr(ring, "multiply", counted)
    gens = GeneratorSet.build(6)
    # E2^2..E2^5, E2*phi4, E2^3*phi4, E2^2*phi6, phi4^2, E2*phi4^2, phi4*phi6
    # at grade 10, and no product left in the cache of the set build returns
    assert Counter(a[1] for a, _ in operands) == Counter({10: 10})
    assert max(operands.values()) == 1 and gens._products == {}
    operands.clear()
    assert all(rep.ok for rep in verify_chi5_square_relations(gens)
               + verify_polynomial_relations(gens))
    assert sum(operands.values()) == 105 and max(operands.values()) == 1


@pytest.mark.parametrize("upto, powers", [
    ("chi15", (("E2", -1),)), ("chi15", (("E2", 1.5),)), ("chi15", (("e2", 1),)),
    ("chi15", (("E3", 1),)), ("phi", (("chi5a", 1),))],
    ids=["negative", "not an int", "lower case", "no such form", "later stage"])
def test_monomial_refuses_what_is_not_a_power_of_a_member(upto, powers):
    gens = GeneratorSet.build(6, upto)
    before = dict(gens._products)
    with pytest.raises(ValueError, match=re.escape("%r is not a power" % (powers[0],))):
        gens.monomial(powers)
    assert gens._products == before


@pytest.mark.parametrize("upto", ["phi", "chi5", "chi15"])
def test_built_members_are_their_own_product_entries(upto):
    gens = GeneratorSet.build(6, upto)
    for form in ("E2", "phi4", "phi6"):
        assert gens.monomial(((form, 1),)) is getattr(gens, form.lower())
    assert gens.monomial((("phi2", 2),)) is gens.monomial((("E2", 2),))


def test_each_structure_row_is_ranked_at_the_least_grade_covering_its_own(monkeypatch):
    gens = GeneratorSet.build(8)
    formed = Counter()
    multiply = ring.multiply

    def counted(a, b):
        product = multiply(a, b)
        formed[product.weight, product.prec] += 1
        return product

    monkeypatch.setattr(ring, "multiply", counted)
    report = verify_structure(20, gens)
    # weights 0-17 state grades up to 8 and weights 18-20 state 9, 9 and 10;
    # the checks state 5, 5, 7, 7, 10 and 10, the independence row 7
    assert report.ok
    assert [row.prec for row in report.rows] == [8] * 18 + [10] * 3 + [8] * 4 + [10] * 2 + [8]
    assert formed[19, 8] == 0 and formed[19, 10] > 0


@pytest.mark.parametrize("prec, kmax, builds", [(5, 24, [13]), (12, 24, []), (12, 26, [14])])
def test_structure_makes_at_most_one_build_and_ranks_each_row_once(prec, kmax, builds,
                                                                  monkeypatch):
    gens = GeneratorSet.build(prec)
    made, ranked = [], []
    build, rank = GeneratorSet.build, ring.rank_of_span

    def counted_build(cls, prec, upto="chi15"):
        made.append(prec)
        return build(prec, upto)

    def counted_rank(forms):
        ranked.append(forms[0].prec if forms else None)
        return rank(forms)

    monkeypatch.setattr(GeneratorSet, "build", classmethod(counted_build))
    monkeypatch.setattr(ring, "rank_of_span", counted_rank)
    report = verify_structure(kmax, gens)
    assert report.ok and made == builds
    # one rank per row, in row order, at the row's grade; weights 1 and 3
    # have no monomial, and rank_of_span ranks none
    assert len(report.rows) == kmax + 1 + len(ring._span_checks())
    assert ranked == [row.prec if row.expected else None for row in report.rows]


def test_build_rejects_grades_past_the_kernel(monkeypatch):
    monkeypatch.setattr(ring, "eisenstein_series", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match="grade 83"):
        GeneratorSet.build(79)
    with pytest.raises(ValueError, match="grade 84"):
        GeneratorSet.build(82, upto="chi5")


@pytest.mark.parametrize("stage", STAGES)
def test_build_works_at_the_grade_check_prec_returns(stage, monkeypatch):
    grades, series = [], ring.eisenstein_series

    def recording(params, X):
        grades.append(X)
        return series(params, X)

    monkeypatch.setattr(ring, "eisenstein_series", recording)
    assert GeneratorSet.build(6, stage).prec == 6
    assert grades == [check_prec(6, stage)] * 5


@pytest.mark.parametrize("prec", [5, 6, 12, 40, 78])
def test_each_stage_works_as_deep_as_its_construction_loses(prec):
    # the roots chi5a, chi5b lose the grade of their leading indices, and
    # chi15, a quotient by chi5b, loses the grade of chi5b's
    assert (check_prec(prec, "chi5") - check_prec(prec, "phi")
            == grade(CHI5A_LEAD) == grade(CHI5B_LEAD))
    assert check_prec(prec, "chi15") - check_prec(prec, "chi5") == grade(CHI5B_LEAD)


@pytest.mark.parametrize("stage, deepest", [("phi", 82), ("chi5", 80), ("chi15", 78)])
def test_each_stage_reaches_the_kernel_grade_and_no_further(stage, deepest, monkeypatch):
    monkeypatch.setattr(ring, "eisenstein_series", lambda *args: pytest.fail("built"))
    assert check_prec(deepest, stage) == MAX_GRADE
    refusal = ("stage %s at prec %d needs grade %d; the convolution kernel reaches "
               "grade %d" % (stage, deepest + 1, MAX_GRADE + 1, MAX_GRADE))
    for refuse in (check_prec, GeneratorSet.build):
        with pytest.raises(ValueError) as err:
            refuse(deepest + 1, stage)
        assert str(err.value) == refusal


def test_an_unknown_stage_is_refused_by_name():
    for refuse in (check_prec, GeneratorSet.build):
        with pytest.raises(ValueError) as err:
            refuse(8, "chi7")
        assert str(err.value) == "unknown stage 'chi7'; known: phi chi5 chi15"
