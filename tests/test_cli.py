"""Command-line surface: expansion output, serialization round trips, the
expansion cache, dimension tables, and the verify suites."""
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import series_from_record
from qsiegel.cli import (cache_lookup, cache_store, emit_csv, emit_json, main,
                         parse_csv, parse_json, record_from_series)
from qsiegel import cli, dims
from qsiegel.eisenstein import EisensteinParams, eisenstein_series
from qsiegel.forms import FORMS
from qsiegel.fourier import FourierSeries
from qsiegel.lattice import layer_positions, position_count
from qsiegel.ring import GeneratorSet

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_expand_csv(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "E2", "--prec", "6",
                     "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# form=E2 weight=2 prec=6"
    assert lines[1] == "x,y,z,m,coeff"
    assert "0,0,0,0,1" in lines
    assert "2,1,-1,3,48" in lines


def test_expand_json_contains_exact_strings(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "E4", "--prec", "4",
                     "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["form"] == "E4" and rec["weight"] == 4 and rec["prec"] == 4
    values = {tuple(r[:3]): r[4] for r in rec["rows"]}
    assert values[(2, 1, -1)] == "960/13"
    assert values[(0, 0, 0)] == "1"


def test_expand_unknown_form(capsys):
    rc, out, err = run(capsys, "expand", "--form", "nope", "--prec", "6")
    assert rc == 2 and out == "" and "unknown form" in err


def test_expand_prec_too_small_for_chi15(capsys):
    rc, _, err = run(capsys, "expand", "--form", "chi15", "--prec", "4")
    assert rc == 2 and "prec" in err


def test_expand_prec_past_the_kernel_exits_2(capsys):
    rc, out, err = run(capsys, "expand", "--form", "E2", "--prec", "83")
    assert rc == 2 and out == ""
    assert "needs grade 83; the convolution kernel reaches grade 82" in err


def test_serialization_round_trips():
    s = eisenstein_series(EisensteinParams(4), 6)
    rec = record_from_series("E4", s)
    assert parse_json(emit_json(rec)) == rec
    assert parse_csv(emit_csv(rec)) == rec
    assert series_from_record(rec) == s


def test_record_rows_are_canonical_and_exact():
    s = eisenstein_series(EisensteinParams(6), 4)
    rec = record_from_series("E6", s)
    assert rec["rows"][0] == [0, 0, 0, 0, "1"]  # constant term sorts first
    assert rec["rows"][1][:4] == [2, 1, -1, 3]
    for x, y, z, m, c in rec["rows"]:
        assert Fr(c) == s.coeff((x, y, z))


def lookup(cache, form, prec):
    """The cached series of the form at prec; None on a miss."""
    fields = cache_lookup(cache, form, prec)
    return fields and FourierSeries.from_vector(FORMS[form][1], prec, *fields)


def test_cache_store_and_lookup(tmp_path):
    cache = str(tmp_path / "cache")
    s = eisenstein_series(EisensteinParams(2), 8)
    cache_store(cache, "E2", s)
    assert os.path.exists(os.path.join(cache, "E2.json"))
    assert cache_lookup(cache, "E2", 8) == (s.den, s.vec)
    assert lookup(cache, "E2", 6) == s.truncate(6)
    assert cache_lookup(cache, "E2", 9) is None
    assert cache_lookup(cache, "E4", 8) is None
    assert cache_lookup(None, "E2", 8) is None
    # Only <form>.json is read: a record in the old per-precision layout,
    # E2.p8.json, is never read.
    os.replace(os.path.join(cache, "E2.json"), os.path.join(cache, "E2.p8.json"))
    assert cache_lookup(cache, "E2", 6) is None


def test_expand_populates_and_reuses_cache(tmp_path, capsys):
    cache = str(tmp_path / "c")
    rc, out1, _ = run(capsys, "--cache-dir", cache, "expand", "--form", "chi5a",
                      "--prec", "5", "--format", "json")
    assert rc == 0
    stored = sorted(os.listdir(cache))
    assert "chi5a.json" in stored and "chi5b.json" in stored
    # corrupt nothing, ask again at lower precision: served by truncation,
    # with no new files appearing
    rc, out2, _ = run(capsys, "--cache-dir", cache, "expand", "--form", "chi5a",
                      "--prec", "4", "--format", "json")
    assert rc == 0
    assert sorted(os.listdir(cache)) == stored
    rows = {tuple(r[:3]): r[4] for r in json.loads(out2)["rows"]}
    assert rows[(2, 0, -1)] == "1"


def _expand_e2(capsys, prec, *cache):
    return run(capsys, *cache, "expand", "--form", "E2", "--prec", str(prec))


def test_truncated_cache_record_is_recomputed(tmp_path, capsys):
    cache = str(tmp_path / "c")
    _, want, _ = _expand_e2(capsys, 6)
    _expand_e2(capsys, 6, "--cache-dir", cache)
    path = os.path.join(cache, "E2.json")
    with open(path, "r+") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    assert cache_lookup(cache, "E2", 6) is None
    assert _expand_e2(capsys, 6, "--cache-dir", cache)[:2] == (0, want)
    assert cache_lookup(cache, "E2", 6) is not None  # the record was replaced


def test_mislabelled_cache_record_is_a_miss(tmp_path, capsys):
    cache = str(tmp_path / "c")
    _, want, _ = _expand_e2(capsys, 8)
    _expand_e2(capsys, 4, "--cache-dir", cache)
    assert cache_lookup(cache, "E2", 8) is None  # a shallower record
    # The prec-4 record labelled prec 8, under a matching checksum of its den
    # and vec: its vec is short for prec 8.
    path = os.path.join(cache, "E2.json")
    with open(path) as fh:
        rec = json.load(fh)
    with open(path, "w") as fh:
        json.dump(dict(rec, prec=8), fh)
    assert cache_lookup(cache, "E2", 8) is None
    assert cache_lookup(cache, "E2", 4) is None
    assert _expand_e2(capsys, 8, "--cache-dir", cache)[:2] == (0, want)
    assert len(cache_lookup(cache, "E2", 8)[1]) == position_count(8)


def test_cache_record_past_the_kernel_is_never_read(tmp_path, monkeypatch):
    rec = {"form": "E2", "weight": 2, "prec": 400, "den": 1, "vec": [1],
           "version": 2}
    (tmp_path / "E2.json").write_text(json.dumps(_seal(rec)))

    def no_count(p):
        raise AssertionError("counted the positions of grade %d" % p)

    monkeypatch.setattr(cli, "position_count", no_count)
    assert cache_lookup(str(tmp_path), "E2", 6) is None


def test_cache_record_with_a_nan_prec_is_never_read(tmp_path):
    # every comparison with nan is false, so check_prec's bounds let it through,
    # and position_count(nan) is 0, the length of an empty vec
    rec = {"form": "E2", "weight": 2, "prec": float("nan"), "den": 1, "vec": [],
           "version": 2}
    (tmp_path / "E2.json").write_text(json.dumps(_seal(rec)))
    assert cli._read_record(str(tmp_path), "E2") is None


def test_cache_record_of_another_form_is_a_miss(tmp_path):
    cache = str(tmp_path / "c")
    cache_store(cache, "E4", eisenstein_series(EisensteinParams(4), 6))
    os.replace(os.path.join(cache, "E4.json"), os.path.join(cache, "E2.json"))
    assert cache_lookup(cache, "E2", 6) is None


def _seal(rec):
    """rec with a checksum that matches its den and vec, as cache_store
    writes it."""
    return dict(rec, crc32=zlib.crc32(json.dumps([rec["den"], rec["vec"]]).encode()))


def _edit_e2_record(rec, edit):
    if edit == "coefficient":
        rec["vec"][layer_positions(2)[(2, 1, -1)]] = 12345
    elif edit == "version":
        rec["version"] += 1
        return _seal(rec)
    elif edit == "checksum":
        rec["crc32"] ^= 1
    else:  # a record without the version and checksum fields
        del rec["version"], rec["crc32"]
    return rec


@pytest.mark.parametrize("edit", ["coefficient", "version", "checksum", "unsealed"])
def test_cache_record_failing_its_seal_is_recomputed(tmp_path, capsys, edit):
    cache = str(tmp_path / "c")
    _, want, _ = _expand_e2(capsys, 6)
    _expand_e2(capsys, 6, "--cache-dir", cache)
    path = os.path.join(cache, "E2.json")
    with open(path) as fh:
        rec = _edit_e2_record(json.load(fh), edit)
    with open(path, "w") as fh:
        json.dump(rec, fh)
    assert cache_lookup(cache, "E2", 6) is None
    assert _expand_e2(capsys, 6, "--cache-dir", cache)[:2] == (0, want)
    assert cache_lookup(cache, "E2", 6) is not None  # the record was replaced


def test_version_1_cache_record_is_recomputed_and_replaced(tmp_path, capsys):
    cache = tmp_path / "c"
    _, want, _ = _expand_e2(capsys, 6, "--cache-dir", str(cache))
    fresh = (cache / "E2.json").read_bytes()
    # the rows record, version 1, that cache_store wrote before den and vec
    rec = record_from_series("E2", eisenstein_series(EisensteinParams(2), 6))
    rec.update(version=1, crc32=zlib.crc32(json.dumps(rec["rows"]).encode()))
    (cache / "E2.json").write_text(json.dumps(rec))
    assert cache_lookup(str(cache), "E2", 6) is None
    assert _expand_e2(capsys, 6, "--cache-dir", str(cache))[:2] == (0, want)
    assert (cache / "E2.json").read_bytes() == fresh


def test_expand_looks_the_cache_up_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return cache_lookup(*args)

    monkeypatch.setattr(cli, "cache_lookup", counted)
    cache = str(tmp_path / "c")
    for _ in ("miss", "hit"):
        calls.clear()
        assert _expand_e2(capsys, 6, "--cache-dir", cache)[0] == 0
        assert calls == [(cache, "E2", 6)]


def _expand_in_process(cache=None):
    """(exit code, stdout) of `expand --form E2 --prec 6`, outside capsys so
    that hypothesis can call it once per example."""
    out = io.StringIO()
    argv = (["--cache-dir", cache] if cache else []) + [
        "expand", "--form", "E2", "--prec", "6"]
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def e2_record():
    """The bytes of the cached E2 record at prec 6, and the uncached stdout."""
    with tempfile.TemporaryDirectory() as cache:
        _expand_in_process(cache)
        with open(os.path.join(cache, "E2.json"), "rb") as fh:
            text = fh.read()
    return text, _expand_in_process()


# Fields no valid record holds: den must be an int > 0, every vec entry an
# int (a bool or a float is not), and vec one entry per position in lowest terms.
BAD_FIELDS = ([("den", bad) for bad in (0, -1, 1.5, "1", None, True)]
              + [("entry", bad) for bad in (48.0, "48", None, True, [48])]
              + [("vec", bad) for bad in ("short", "long", "not in lowest terms")])


def _spoil(rec, at, field, bad):
    vec = rec["vec"]
    if field == "den":
        rec["den"] = bad
    elif field == "entry":
        vec[at % len(vec)] = bad
    elif bad == "short":
        vec.pop()
    elif bad == "long":
        vec.append(0)
    else:
        rec["den"], rec["vec"] = 2 * rec["den"], [2 * v for v in vec]


def _every_bad_field(test):
    """Add an explicit example of every bad field, resealed and not."""
    for field in BAD_FIELDS:
        for reseal in (False, True):
            test = example(kind="field", at=1, byte=1, field=field, reseal=reseal)(test)
    return test


@given(kind=st.sampled_from(("truncate", "flip", "field")),
       at=st.integers(0, 10 ** 6), byte=st.integers(1, 255),
       field=st.sampled_from(BAD_FIELDS), reseal=st.booleans())
@_every_bad_field
@settings(max_examples=60, deadline=None)
def test_mutated_cache_record_is_recomputed(e2_record, kind, at, byte, field, reseal):
    """Truncation, a flipped byte, or a field no valid record holds (under a
    matching checksum when reseal) never reaches the output; a spoilt field
    makes the request replace the record with the one it computes."""
    text, want = e2_record
    i = at % len(text)
    if kind == "truncate":
        record = text[:i]
    elif kind == "flip":
        record = text[:i] + bytes([text[i] ^ byte]) + text[i + 1:]
    else:
        rec = json.loads(text)
        _spoil(rec, at, *field)
        record = json.dumps(_seal(rec) if reseal else rec).encode()
    with tempfile.TemporaryDirectory() as cache:
        path = os.path.join(cache, "E2.json")
        with open(path, "wb") as fh:
            fh.write(record)
        assert _expand_in_process(cache) == want
        if kind == "field":
            with open(path, "rb") as fh:
                assert fh.read() == text


def test_deeply_nested_cache_record_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "c"
    cache.mkdir()
    (cache / "E2.json").write_text("[" * 100000)
    _, want, _ = _expand_e2(capsys, 6)
    assert _expand_e2(capsys, 6, "--cache-dir", str(cache))[:2] == (0, want)


def test_unwritable_cache_record_does_not_fail_expand(tmp_path, capsys):
    cache = tmp_path / "c"
    (cache / "E4.json").mkdir(parents=True)
    argv = ("expand", "--form", "E4", "--prec", "6")
    _, want, _ = run(capsys, *argv)
    rc, out, err = run(capsys, "--cache-dir", str(cache), *argv)
    assert (rc, out) == (0, want)
    assert "warning: E4 not cached" in err
    assert not list(cache.glob("*.tmp"))
    assert (cache / "E2.json").is_file()  # the stage's other members are cached
    # A cache dir that is a regular file holds nothing and takes nothing.
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert cache_lookup(str(not_a_dir), "E2", 6) is None
    _, want, _ = _expand_e2(capsys, 6)
    rc, out, err = _expand_e2(capsys, 6, "--cache-dir", str(not_a_dir))
    assert (rc, out) == (0, want)
    assert "warning: E2 not cached" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    # The environment names no cache: a record a read would serve, and one a
    # deeper request would replace, stay as they are.
    cache = tmp_path / "envcache"
    _, want6, _ = _expand_e2(capsys, 6)
    _, want8, _ = _expand_e2(capsys, 8)
    assert _expand_e2(capsys, 6, "--cache-dir", str(cache))[0] == 0
    path = cache / "E2.json"
    rec = json.loads(path.read_text())
    _raise_last_coefficient(rec)
    path.write_text(json.dumps(_seal(rec)))
    assert cache_lookup(str(cache), "E2", 6) == (rec["den"], rec["vec"])
    files = {f.name: f.read_bytes() for f in cache.iterdir()}
    monkeypatch.setenv("QSIEGEL_CACHE_DIR", str(cache))
    assert _expand_e2(capsys, 6)[:2] == (0, want6)
    assert _expand_e2(capsys, 8)[:2] == (0, want8)
    assert {f.name: f.read_bytes() for f in cache.iterdir()} == files


def test_dims_table_p3(capsys):
    rc, out, _ = run(capsys, "dims", "--p", "3", "--from", "0", "--to", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,dim_cusp,dim_modular"
    assert lines[1] == "0,0,1"
    assert lines[5] == "4,1,2"
    assert lines[6] == "5,2,2"


def test_dims_table_p5_json(capsys):
    rc, out, _ = run(capsys, "dims", "--p", "5", "--from", "5", "--to", "6",
                     "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["p"] == 5 and rec["columns"] == ["k", "dim_cusp"]
    assert rec["rows"][0][0] == 5


def test_dims_p25_anchor(capsys):
    rc, out, _ = run(capsys, "dims", "--p", "3", "--from", "25", "--to", "25")
    assert rc == 0
    assert out.strip().splitlines()[1] == "25,47,47"


def test_dims_rejects_bad_p(capsys):
    rc, _, err = run(capsys, "dims", "--p", "2", "--from", "5", "--to", "6")
    assert rc == 2 and "odd prime" in err
    rc, _, err = run(capsys, "dims", "--p", "9", "--from", "5", "--to", "6")
    assert rc == 2 and "odd prime" in err


def test_dims_refuses_a_large_p_before_testing_it(capsys):
    # factorize would try about 5 * 10^8 divisors of this prime
    p = 10 ** 18 + 3
    start = time.perf_counter()
    rc, out, err = run(capsys, "dims", "--p", str(p), "--from", "5", "--to", "5")
    assert time.perf_counter() - start < 1
    assert (rc, out, err) == (2, "", "error: p must be below 2^40, got %d\n" % p)


def test_dims_rejects_low_start_for_general_p(capsys):
    rc, _, err = run(capsys, "dims", "--p", "5", "--from", "4", "--to", "6")
    assert rc == 2 and ">= 5" in err


def test_dims_p3_evaluates_the_formula_once_per_weight(capsys, monkeypatch):
    weights = []
    formula = dims._cusp_formula
    monkeypatch.setattr(dims, "_cusp_formula",
                        lambda k, p: weights.append(k) or formula(k, p))
    rc, out, _ = run(capsys, "dims", "--p", "3", "--from", "0", "--to", "244")
    assert rc == 0 and len(out.splitlines()) == 246
    assert sorted(weights) == list(range(5, 245))


# Every refusal: argv, whether a cache holding E2 at prec 4 is passed, and
# the reason the one stderr line must name.
REFUSALS = [
    (("expand", "--form", "nope", "--prec", "6"), False, "unknown form 'nope'"),
    (("expand", "--form", "E2", "--prec", "3"), False, "prec must be >= 4"),
    (("expand", "--form", "E2", "--prec", "3"), True, "prec must be >= 4"),
    (("expand", "--form", "delta20a", "--prec", "5"), False,
     "delta20a has no rows at prec 5; increase --prec"),
    (("expand", "--form", "E2", "--prec", "83"), False, "needs grade 83"),
    (("verify", "--suite", "structure", "--kmax", "-1"), False, "kmax must be >= 0"),
    (("dims", "--p", "3", "--from", "6", "--to", "5"), False, "empty weight range"),
    (("dims", "--p", "9", "--from", "5", "--to", "6"), False,
     "p must be an odd prime, got 9"),
    (("dims", "--p", "5", "--from", "4", "--to", "6"), False,
     "the dimension formula needs k >= 5"),
    (("dims", "--p", "3", "--from", "-1", "--to", "3"), False, "weight must be >= 0"),
]


@pytest.mark.parametrize("argv, cached, reason", REFUSALS, ids=[
    " ".join(argv) + (" cached" if cached else "") for argv, cached, _ in REFUSALS])
def test_every_refusal_is_one_error_line_and_exit_2(
        tmp_path, capsys, argv, cached, reason):
    cache = ()
    if cached:  # a record that would serve the request by truncation
        cache = ("--cache-dir", str(tmp_path))
        assert _expand_e2(capsys, 4, *cache)[0] == 0
    rc, out, err = run(capsys, *cache, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert reason in err


# Requests below the chi15 floor that a cache filled by chi15 at prec 8 would
# otherwise serve by truncation.
BELOW_FLOOR = [
    ("verify", "--suite", "relations", "--prec", "4"),
    ("verify", "--suite", "tables", "--prec", "2"),
    ("verify", "--suite", "structure", "--prec", "3", "--kmax", "4"),
    ("expand", "--form", "chi15", "--prec", "4"),
    ("expand", "--form", "delta20a", "--prec", "4"),
]


@pytest.mark.parametrize("argv", BELOW_FLOOR, ids=" ".join)
def test_a_cached_request_refuses_what_a_cold_one_refuses(
        tmp_path, capsys, monkeypatch, argv):
    cache = ("--cache-dir", str(tmp_path))
    assert run(capsys, *cache, "expand", "--form", "chi15", "--prec", "8")[0] == 0
    assert (tmp_path / "chi15.json").is_file()
    lookups, read = [], cli.cache_lookup
    monkeypatch.setattr(cli, "cache_lookup", lambda *a: lookups.append(a) or read(*a))
    cold, cached = run(capsys, *argv), run(capsys, *cache, *argv)
    assert cold == cached and lookups == []  # refused before any lookup
    rc, out, err = cold
    assert (rc, out) == (2, "")
    assert err == "error: prec must be >= 5 (stage chi15)\n"


def test_a_cached_request_above_the_ceiling_refuses_as_a_cold_one(tmp_path, capsys):
    # A self-consistent chi15 record at prec 79, one past the chi15 stage's
    # ceiling (its build needs grade 83); before check_prec owned the ceiling,
    # the cached run served its rows and exited 0.
    vec = [1] + [0] * (position_count(79) - 1)
    cache_store(str(tmp_path), "chi15", FourierSeries.from_vector(15, 79, 1, vec))
    assert (tmp_path / "chi15.json").is_file()
    argv = ("expand", "--form", "chi15", "--prec", "79")
    cold, cached = run(capsys, *argv), run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert cold == cached
    assert cold == (2, "", "error: stage chi15 at prec 79 needs grade 83; "
                           "the convolution kernel reaches grade 82\n")


def test_cache_lookup_opens_one_path(tmp_path, monkeypatch):
    cache = str(tmp_path)
    opened = []
    monkeypatch.setattr(cli, "open", lambda path, *a: opened.append(path) or open(path, *a),
                        raising=False)
    cache_store(cache, "E2", eisenstein_series(EisensteinParams(2), 12))
    for prec, served in ((5, True), (13, False)):
        opened.clear()
        assert (cache_lookup(cache, "E2", prec) is not None) == served
        assert opened == [os.path.join(cache, "E2.json")]


@pytest.mark.parametrize("form, past", [("E2", 83), ("chi5a", 81), ("chi15", 79)])
def test_cache_record_past_its_stage_ceiling_is_a_miss(tmp_path, form, past):
    # Sealed and self-consistent, one grade past what check_prec lets the
    # form's stage build.
    vec = [1] + [0] * (position_count(past) - 1)
    cache_store(str(tmp_path), form, FourierSeries.from_vector(FORMS[form][1], past, 1, vec))
    assert json.loads((tmp_path / (form + ".json")).read_text())["prec"] == past
    assert cache_lookup(str(tmp_path), form, 5) is None


def test_a_shallower_build_keeps_the_deeper_record(tmp_path, capsys, monkeypatch):
    cache = ("--cache-dir", str(tmp_path))
    _, want, _ = _expand_e2(capsys, 14)
    assert _expand_e2(capsys, 14, *cache)[0] == 0
    assert run(capsys, *cache, "expand", "--form", "chi5a", "--prec", "8")[0] == 0
    assert run(capsys, *cache, "verify", "--suite", "relations", "--prec", "8")[0] == 0
    assert json.loads((tmp_path / "E2.json").read_text())["prec"] == 14

    def no_build(*args, **kwargs):
        raise AssertionError("the prec-14 E2 record must serve prec 14")

    monkeypatch.setattr(GeneratorSet, "build", no_build)
    assert _expand_e2(capsys, 14, *cache)[:2] == (0, want)


def _raise_last_coefficient(rec):
    """One more at the last nonzero position (E6 at prec 8: (8, 2, -4))."""
    rec["vec"][max(i for i, v in enumerate(rec["vec"]) if v)] += rec["den"]


def _zero(rec):
    rec["den"], rec["vec"] = 1, [0] * len(rec["vec"])


# A record edited and resealed with a fresh checksum passes every check of
# the reader.  A verify that read the cache would show the E6 edit in tables
# and relations but not in structure, so structure gets a zeroed delta20a.
FORGED = [("tables", "E6", _raise_last_coefficient),
          ("relations", "E6", _raise_last_coefficient),
          ("structure", "delta20a", _zero)]


@pytest.mark.parametrize("suite, form, forge", FORGED, ids=[f[0] for f in FORGED])
def test_verify_ignores_a_forged_cache(tmp_path, capsys, suite, form, forge):
    cache = ("--cache-dir", str(tmp_path))
    assert run(capsys, *cache, "expand", "--form", "chi15", "--prec", "8")[0] == 0
    path = tmp_path / (form + ".json")
    rec = json.loads(path.read_text())
    forge(rec)
    path.write_text(json.dumps(_seal(rec)))
    assert cache_lookup(str(tmp_path), form, 8) == (rec["den"], rec["vec"])  # expand serves it
    argv = ("verify", "--suite", suite, "--prec", "8")
    cold = run(capsys, *argv)
    assert cold[0] == 0
    assert run(capsys, *cache, *argv) == cold


def test_verify_dims_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "dims")
    assert rc == 0
    assert "0 mismatches" in out and "PASS" in out


def test_verify_dims_suite_covers_every_residue_class_mod_60(capsys):
    # 4 consecutive weights in each class mod 60 from k = 5: 0 <= k <= 244
    rc, out, _ = run(capsys, "verify", "--suite", "dims")
    assert rc == 0
    assert "dims: 245 weights compared, 0 mismatches" in out


def test_verify_dims_says_what_it_proves_and_assumes(capsys, monkeypatch):
    rc, out, _ = run(capsys, "verify", "--suite", "dims")
    lines = out.splitlines()
    assert rc == 0 and lines[0].startswith("dims: 245 weights compared")
    assert lines[1] == ("  proves equality for every k >= 5 (both sides degree-3 "
                        "quasi-polynomials, period dividing 60); assumes the "
                        "dimension formula as implemented and the tabulated "
                        "k <= 4 values in dims.dim_modular")
    genfun = dims._genfun
    monkeypatch.setattr(dims, "_genfun", lambda k_max: [
        c + (k == 100) for k, c in enumerate(genfun(k_max))])
    rc, out, _ = run(capsys, "verify", "--suite", "dims")
    assert rc == 1 and "1 mismatches" in out and "proves" not in out


def test_verify_tables_suite(capsys, tmp_path):
    rc, out, _ = run(capsys, "--cache-dir", str(tmp_path / "t"),
                     "verify", "--suite", "tables", "--prec", "6")
    assert rc == 0
    assert not (tmp_path / "t").exists()  # verify writes no cache
    assert out.splitlines() == ["tables: 245 tabulated values checked, 0 mismatches",
                                "verify tables: PASS"]


def test_verify_tables_reports_each_mismatch(capsys, tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(cli.FIXTURE_DIR, fixtures)
    csv = fixtures / "table_E2.csv"
    csv.write_text(csv.read_text().replace("\n2,1,-1,3,48\n", "\n2,1,-1,3,49\n"))
    products = fixtures / "products_weight8.json"
    table = json.loads(products.read_text())
    row = next(r for r in table["rows"] if r["eta"] == [2, 1, -1])
    row["values"][table["columns"].index("phi4^2")] = "5"
    products.write_text(json.dumps(table))
    monkeypatch.setattr(cli, "FIXTURE_DIR", str(fixtures))
    rc, out, _ = run(capsys, "verify", "--suite", "tables", "--prec", "6")
    assert rc == 1
    assert out.splitlines() == [
        "tables: 245 tabulated values checked, 2 mismatches",
        "  MISMATCH products_weight8.json:phi4^2 at (2, 1, -1): computed 0, table 5",
        "  MISMATCH table_E2.csv at (2, 1, -1): computed 48, table 49",
        "verify tables: FAIL"]


def test_verify_relations_suite(capsys, tmp_path):
    rc, out, _ = run(capsys, "--cache-dir", str(tmp_path / "r"),
                     "verify", "--suite", "relations", "--prec", "8")
    assert rc == 0
    assert not (tmp_path / "r").exists()  # verify writes no cache
    assert out.splitlines() == [
        "chi5a_sq_expansion: ok", "chi5b_sq_expansion: ok", "e8_in_lower_generators: ok",
        "chi5_quintic: ok", "chi15_sq_identity: ok", "chi15_sq_tabulated_scale: ok",
        "verify relations: PASS"]


def test_the_demo_prints_what_verify_prints(capsys):
    # verify_everything.py prints each suite's lines behind "[suite] ", on the
    # one set it builds at prec 14; the CLI prints them before its verdict.
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "verify_everything.py")],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for suite in ("tables", "relations", "structure", "dims"):
        tag = "[%s] " % suite
        demo = [ln[len(tag):] for ln in proc.stdout.splitlines() if ln.startswith(tag)]
        rc, out, _ = run(capsys, "verify", "--suite", suite, "--prec", "14")
        assert rc == 0 and demo == out.splitlines()[:-1] and demo


def test_verify_structure_rejects_negative_kmax(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "structure", "--kmax", "-3")
    assert rc == 2 and "kmax" in err and not out


def test_verify_structure_suite_at_prec_5_walks_to_a_pass(capsys, tmp_path):
    # weight 20 states grade 10, so it is ranked on the one build, at grade
    # 11; the independence row states 7, a cut of that build
    rc, out, _ = run(capsys, "--cache-dir", str(tmp_path / "s"),
                     "verify", "--suite", "structure", "--prec", "5")
    assert rc == 0
    assert not (tmp_path / "s").exists()  # verify writes no cache
    assert "weight 20: rank 28 expected 28 ok" in out
    assert out.splitlines()[21:] == [
        "w10_products: rank 6 expected 6 ok",
        "w10_with_chi5ab: rank 7 expected 7 ok",
        "w15_five_generators: rank 12 expected 12 ok",
        "w15_with_chi15: rank 13 expected 13 ok",
        "w20_five_generators: rank 26 expected 26 ok",
        "w20_with_deltas: rank 28 expected 28 ok",
        "e2_e4_chi5a_e6_independent (Jacobian criterion): delta20a != 0 at grade 7 ok",
        "verify structure: PASS"]


def test_verify_structure_reports_each_failing_row(capsys, gens12, monkeypatch):
    # unchecked; every row states a grade <= 12, so no build replaces it
    zero = GeneratorSet._assemble(
        12, "chi15", {**gens12.members(), "delta20a": FourierSeries(20, 12, {})})
    monkeypatch.setattr(GeneratorSet, "build", lambda *args: zero)
    rc, out, _ = run(capsys, "verify", "--suite", "structure", "--prec", "12",
                     "--kmax", "0")
    assert rc == 1
    assert out.splitlines() == [
        "weight  0: rank 1 expected 1 ok",
        "w10_products: rank 6 expected 6 ok",
        "w10_with_chi5ab: rank 7 expected 7 ok",
        "w15_five_generators: rank 12 expected 12 ok",
        "w15_with_chi15: rank 13 expected 13 ok",
        "w20_five_generators: rank 26 expected 26 ok",
        "w20_with_deltas: rank 27 expected 28 FAIL",
        "e2_e4_chi5a_e6_independent (Jacobian criterion): delta20a = 0 to grade 12 FAIL",
        "verify structure: FAIL"]
