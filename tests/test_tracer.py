"""perfbench/tracer.py patches the package's layer functions and reads the
coefficients of every series they return; this runs it on a cache-dir
`expand`, a miss and then a hit, and reads perfbench/ without changing it."""
import json
import os
import pathlib
import subprocess
import sys

from qsiegel.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_runs_a_cache_dir_expand(tmp_path, capsys):
    argv = ["expand", "--form", "E2", "--prec", "6", "--format", "json"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    counters = []
    for n in range(2):
        spans = tmp_path / ("spans%d.json" % n)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--",
             "--cache-dir", str(tmp_path / "cache")] + argv,
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
        rec = json.loads(spans.read_text())
        assert rec["spans"]
        counters.append(rec["counters"])
    miss, hit = counters
    assert (miss["cli.cache_misses"], miss["cli.cache_hits"]) == (1, 0)
    assert miss["fourier.height_bits"] > 0
    assert (hit["cli.cache_misses"], hit["cli.cache_hits"]) == (0, 1)
