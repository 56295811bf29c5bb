"""Acceptance gate: one test per criterion, every comparison exact.

Run `pytest -v tests/test_acceptance.py` for a pass/fail line per criterion.
"""
import json
import os
from fractions import Fraction as Fr

from oracles import series_from_record
from qsiegel.cli import (FIXTURE_DIR, _descriptor_powers, cache_lookup,
                         cache_store, emit_csv, emit_json, parse_csv,
                         parse_json, record_from_series)
from qsiegel.diffop import bracket
from qsiegel.dims import dim_cusp, dim_modular, dimension_report
from qsiegel.fourier import (FourierSeries, divide_exact, linear_combine,
                             multiply, rank_of_span, sqrt_monic)
from qsiegel.lattice import ZERO
from qsiegel.ring import (CHI5A_LEAD, FIVE_GENERATORS, monomials,
                          verify_chi5_square_relations,
                          verify_polynomial_relations, verify_structure)


def _csv_table(name):
    with open(os.path.join(FIXTURE_DIR, name)) as fh:
        return parse_csv(fh.read())


def _json_table(name):
    with open(os.path.join(FIXTURE_DIR, name)) as fh:
        return json.load(fh)


def _diff_csv_against(series, name, prec):
    table = _csv_table(name)
    rows = [r for r in table["rows"] if r[0] <= prec]
    assert rows, name
    bad = [(tuple(r[:3]), str(series.coeff(tuple(r[:3]))), r[4])
           for r in rows if series.coeff(tuple(r[:3])) != Fr(r[4])]
    assert not bad, (name, bad)
    return len(rows)


def test_criterion_1_eisenstein_and_product_tables(gens12):
    checked = 0
    checked += _diff_csv_against(gens12.e2, "table_E2.csv", 12)
    checked += _diff_csv_against(gens12.e4, "table_E4.csv", 12)
    checked += _diff_csv_against(gens12.e6, "table_E6.csv", 12)
    for name in ("products_weight246.json", "products_weight8.json",
                 "products_weight10.json"):
        table = _json_table(name)
        cols = [gens12.monomial(_descriptor_powers(d)) for d in table["columns"]]
        for row in table["rows"]:
            eta = tuple(row["eta"])
            for col, want in zip(cols, row["values"]):
                assert col.coeff(eta) == Fr(want), (name, eta)
                checked += 1
    assert checked == 72 + 60 + 75 + 90


def test_criterion_2_chi5_columns_and_grade3_values(gens12):
    na = _diff_csv_against(gens12.chi5a, "table_chi5a.csv", 12)
    nb = _diff_csv_against(gens12.chi5b, "table_chi5b.csv", 12)
    assert na == nb == 28
    grade3 = ((3, 0, -2), (3, 0, -1), (3, 1, -2), (3, 1, -1))
    assert [gens12.chi5a.coeff(e) for e in grade3] == [0, 0, -1, -1]
    assert [gens12.chi5b.coeff(e) for e in grade3] == [-1, -1, 0, 0]


def test_criterion_3_chi15_construction_and_companion(gens12):
    assert gens12.chi15.weight == 15
    assert gens12.chi15.coeff((5, 1, -2)) == 1
    assert gens12.chi15.coeff(ZERO) == 0
    assert _diff_csv_against(gens12.chi15, "table_chi15.csv", 12) == 7
    # the quotient by the other weight-5 root, normalized the same way,
    # is exactly the same series
    companion = divide_exact(gens12.delta20b, gens12.chi5a, CHI5A_LEAD)
    companion = linear_combine([(1 / companion.coeff((5, 1, -2)), companion)])
    assert companion == gens12.chi15.truncate(10)


def test_criterion_4_polynomial_relations(gens12):
    reports = verify_chi5_square_relations(gens12) + verify_polynomial_relations(gens12)
    names = [r.name for r in reports]
    assert names == ["chi5a_sq_expansion", "chi5b_sq_expansion",
                     "e8_in_lower_generators", "chi5_quintic",
                     "chi15_sq_identity", "chi15_sq_tabulated_scale"]
    for rep in reports:
        assert rep.ok and not rep.mismatches, rep.name


def test_criterion_5_dimension_formula():
    assert {k: dim_cusp(k, 3) for k in (5, 6, 7, 8, 9, 10, 15, 20, 25)} == {
        5: 2, 6: 2, 7: 2, 8: 3, 9: 4, 10: 6, 15: 13, 20: 27, 25: 47}
    assert [dim_modular(k) for k in range(5)] == [1, 0, 1, 0, 2]
    report = dimension_report()
    assert report.ok and all(row[4] for row in report.rows)


def test_criterion_6_span_structure(gens12):
    report = verify_structure(20, gens12)
    assert report.rows[6].rank == 3
    assert report.rows[8].rank == 4
    assert all(r.rank == r.expected for r in report.rows)
    spans = {r.name: (r.rank, r.expected) for r in report.rows}
    assert spans["w10_products"] == (6, 6)
    assert spans["w10_with_chi5ab"] == (7, 7)
    assert spans["w15_five_generators"] == (12, 12)
    assert spans["w15_with_chi15"] == (13, 13)
    assert spans["w20_five_generators"] == (26, 26)
    assert spans["w20_with_deltas"] == (28, 28)
    assert report.ok


def test_criterion_7_properties_and_cache_round_trip(gens12, tmp_path):
    # serialization and cache round trips
    cache = str(tmp_path / "cache")
    for form in ("E2", "chi5a", "chi15"):
        s = gens12.members()[form]
        rec = record_from_series(form, s)
        assert parse_json(emit_json(rec)) == rec
        assert parse_csv(emit_csv(rec)) == rec
        assert series_from_record(rec) == s
        cache_store(cache, form, s)
        assert cache_lookup(cache, form, 12) == (s.den, s.vec)
        fields = cache_lookup(cache, form, 7)
        assert FourierSeries.from_vector(s.weight, 7, *fields) == s.truncate(7)

    # square root and exact division invert the corresponding products
    chi5a10 = gens12.chi5a.truncate(10)
    sq = multiply(chi5a10, chi5a10)
    assert sqrt_monic(sq, (2, 0, -1)) == chi5a10.truncate(8)
    prod = multiply(gens12.chi5b.truncate(10), gens12.chi15.truncate(10))
    assert divide_exact(prod, gens12.chi5b.truncate(10), (2, 1, -1)) \
        == gens12.chi15.truncate(8)

    # bracket obeys the product rule through squares
    e2, e4, e6 = (s.truncate(10) for s in (gens12.e2, gens12.e4, gens12.e6))
    lhs = bracket(e2, e4, multiply(chi5a10, chi5a10), e6)
    rhs = multiply(chi5a10, bracket(e2, e4, chi5a10, e6))
    assert lhs == linear_combine([(2, rhs)])

    # the five-generator monomial count in weight 20 and their rank deficit
    assert len(monomials(20, FIVE_GENERATORS)) == 34
    assert rank_of_span([gens12.delta20a, gens12.delta20b]) == 2
