"""Self-tests of the benchmark itself:  python3 -m pytest perfbench -q"""
import hashlib
import os
import shutil
import time

import pytest

import layers
import run


@pytest.mark.parametrize("workload", ["expand-cold", "expand-cached", "verify"])
def test_same_seed_same_requests(workload):
    assert run.make_requests(workload, 7) == run.make_requests(workload, 7)
    assert len({tuple(run.make_requests(workload, s)) for s in range(10)}) > 1


def test_every_expand_request_has_a_golden_digest():
    golden = run.load_golden()
    for workload in ("expand-cold", "expand-cached"):
        for seed in range(20):
            for req in run.make_requests(workload, seed):
                assert run.golden_key(*req.key[1:]) in golden


def test_cold_design_costs_do_not_depend_on_the_seed():
    batch = {form: b for b, forms in run.BATCHES.items() for form in forms}

    def classes(seed):
        return sorted((batch[r.key[1]], r.key[2])
                      for r in run.make_requests("expand-cold", seed))
    assert all(classes(seed) == classes(0) for seed in range(1, 20))


def test_altered_output_or_nonzero_exit_counts_as_failed():
    req = run.expand_request("E2", 8, "csv")
    out = b"# form=E2 weight=2 prec=8\nx,y,z,m,coeff\n0,0,0,0,1\n"
    golden = {run.golden_key("E2", 8, "csv"): hashlib.sha256(out).hexdigest()}
    assert run.classify(req, 0, out, golden) == run.OK
    altered = out[:-2] + b"2\n"
    assert run.classify(req, 0, altered, golden) == run.WRONG
    assert run.classify(req, 1, out, golden) == run.WRONG


def test_verify_needs_a_final_pass_line():
    req = run.verify_request("relations", 12)
    ok = b"e8_in_lower_generators: ok\nverify relations: PASS\n"
    assert run.classify(req, 0, ok, {}) == run.OK
    assert run.classify(req, 1, ok, {}) == run.WRONG
    assert run.classify(req, 0, ok.replace(b"PASS", b"PASS."), {}) == run.WRONG
    assert run.classify(req, 0, b"", {}) == run.WRONG


def test_known_false_fail_is_failed_but_nothing_else_is_excused():
    out = (b"weight 20: rank 28 expected 28 ok\n"
           b"w20_five_generators: rank 21 expected 26 FAIL\n"
           b"w20_with_deltas: rank 23 expected 28 FAIL\n"
           b"verify structure: FAIL\n")
    assert run.classify(run.verify_request("structure", 8), 1, out, {}) == run.KNOWN
    assert run.classify(run.verify_request("structure", 10), 1, out, {}) == run.WRONG
    other = out.replace(b"weight 20: rank 28 expected 28 ok", b"weight 20: rank 27 expected 28 FAIL")
    assert run.classify(run.verify_request("structure", 8), 1, other, {}) == run.WRONG


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12] is a root.
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["d", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0], ["e", 11.0, 12.0, -1]]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_aggregate_routes_self_time_and_counts():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["cli.cache_store", 1.0, 4.0, 0], ["cli.emit_json", 2.0, 3.0, 1],
             ["cli.emit_csv", 5.0, 5.5, 0],
             ["ring.monomial_basis", 6.0, 9.0, 0], ["ring.build", 6.5, 8.5, 4],
             ["fourier.multiply", 7.0, 8.0, 5]]
    rec = {"import_s": 0.25, "spans": spans,
           "counters": {"fourier.height_bits": 40, "cli.cache_hits": 1}}
    m = layers.aggregate([rec, dict(rec, counters={"fourier.height_bits": 12})])
    assert m["cli.cache_write_s"] == 2 * 3.0   # store self 2 + its emit 1
    assert m["cli.emit_s"] == 2 * 0.5
    assert m["ring.structure_s"] == 2 * 1.0
    assert m["ring.build_s"] == 2 * 1.0
    assert m["ring.build_calls"] == m["ring.escalations"] == 2
    assert m["fourier.multiply_calls"] == 2
    assert m["fourier.height_bits"] == 40
    assert m["cli.cache_hits"] == 1
    assert m["cli.import_s"] == 0.5
    setup = layers.aggregate([], [rec])
    assert setup["cli.cache_write_s"] == 3.0 and setup["fourier.multiply_calls"] == 0


def test_one_real_request_matches_its_digest():
    work = os.path.join(run.WORK, "selftest-%d" % os.getpid())
    os.makedirs(work)
    try:
        req = run.expand_request("E2", 5, "json")
        res = run.Runner(work, time.monotonic() + 60).request(req)
    finally:
        shutil.rmtree(work)
        if not os.listdir(run.WORK):
            os.rmdir(run.WORK)
    assert run.classify(req, res.code, res.stdout, run.load_golden()) == run.OK
