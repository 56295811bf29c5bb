"""`expand` stdout against sha256 digests: the benchmark's (perfbench/golden.json,
read only) for every form at prec 8 in both formats, and golden_deep.json's
for every form at prec 20 as CSV."""
import hashlib
import json
import pathlib

import pytest

from qsiegel.cli import main
from qsiegel.forms import FORMS

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("form", list(FORMS))
def test_expand_output_matches_golden_digest(golden, capsys, form, fmt):
    assert main(["expand", "--form", form, "--prec", "8", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == golden["%s 8 %s" % (form, fmt)]


GOLDEN_DEEP = pathlib.Path(__file__).resolve().with_name("golden_deep.json")


def test_deep_expand_output_matches_golden_digest(tmp_path, capsys):
    # chi15 first: its build stores every form at grade 20 in the cache, so
    # the other 14 are served from the records it wrote
    cache = tmp_path / "cache"
    digests = {}
    for form in sorted(FORMS, key=lambda f: f != "chi15"):
        argv = ["--cache-dir", str(cache), "expand", "--form", form, "--prec", "20",
                "--format", "csv"]
        assert main(argv) == 0
        digests[form] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if form == "chi15":
            assert len(list(cache.iterdir())) == len(FORMS)
    assert digests == json.loads(GOLDEN_DEEP.read_text())["sha256"]
