"""perfbench/tracer.py patches the package's layer functions and reads the
coefficients of every series they return; this runs it on a cache-dir
`expand`, a miss and then a hit, and on the structure suite, and reads
perfbench/ without changing it."""
import json
import os
import pathlib
import subprocess
import sys

from qsiegel.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def traced(spans, argv):
    """(stdout, span record) of the CLI run under perfbench/tracer.py, which
    must exit 0."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--"] + argv,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(spans.read_text())


def test_tracer_runs_a_cache_dir_expand(tmp_path, capsys):
    argv = ["expand", "--form", "E2", "--prec", "6", "--format", "json"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    counters = []
    for n in range(2):
        out, rec = traced(tmp_path / ("spans%d.json" % n),
                          ["--cache-dir", str(tmp_path / "cache")] + argv)
        assert out == want
        assert rec["spans"]
        counters.append(rec["counters"])
    miss, hit = counters
    assert (miss["cli.cache_misses"], miss["cli.cache_hits"]) == (1, 0)
    assert miss["fourier.height_bits"] > 0
    assert (hit["cli.cache_misses"], hit["cli.cache_hits"]) == (0, 1)


def test_tracer_sees_each_structure_row_and_its_rebuilds(tmp_path, capsys):
    argv = ["verify", "--suite", "structure", "--prec", "8", "--kmax", "20"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    out, rec = traced(tmp_path / "spans.json", argv)
    assert out == want
    spans = rec["spans"]
    names = [name for name, _, _, _ in spans]
    assert names.count("ring.monomial_basis") == 21

    def under(i, name):
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent >= 0

    # weights 18-20 state grades 9-10: one build at grade 10, made by
    # verify_structure before any row is ranked
    builds = [i for i, name in enumerate(names) if name == "ring.build"]
    assert [under(i, "ring.verify_structure") for i in builds].count(True) == 1
    assert not any(under(i, "ring.monomial_basis") for i in builds)
