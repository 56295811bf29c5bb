"""`expand` stdout against the benchmark's sha256 digests (perfbench/golden.json,
read only), for every form at prec 8 in both formats."""
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
