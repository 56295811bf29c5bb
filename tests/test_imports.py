"""The package's lazy loading: a cached `expand` runs none of the compute
modules, builds no convolution table and never imports `fractions`, `import
qsiegel.cli` still puts every module in `sys.modules` (the benchmark tracer
patches what it finds there), and every public name of the package resolves
to the defining module's object."""
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qsiegel.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsiegel"
LAZY = ("qsiegel.exactnum", "qsiegel.dims", "qsiegel.eisenstein", "qsiegel.fourier",
        "qsiegel.diffop", "qsiegel.ring")

# The package's public names, by defining module.
PUBLIC = {
    "dims": ("dim_cusp", "dim_modular", "dimension_report", "genfun_coeff"),
    "eisenstein": ("EisensteinParams", "eisenstein_coefficient", "eisenstein_series"),
    "exactnum": ("bernoulli_number", "fundamental_discriminant_split",
                 "generalized_bernoulli", "kronecker_symbol"),
    "diffop": ("bracket",),
    "fourier": ("FourierSeries", "divide_exact", "linear_combine", "multiply", "one",
                "rank_of_span", "relation_nullspace", "sqrt_monic"),
    "lattice": ("enumerate_cone", "grade", "is_positive", "layer", "norm_m",
                "quad_invariants"),
    "ring": ("GeneratorSet", "monomial_basis", "verify_chi5_square_relations",
             "verify_polynomial_relations", "verify_structure"),
}


def fresh_python(code):
    """stdout of `code` run in a new interpreter on this checkout's src/."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("QSIEGEL_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cache_hit_runs_no_compute_module(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path / "c"), "expand", "--form", "E4", "--prec", "5"]
    assert main(argv[:-1] + ["6"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    want = capsys.readouterr().out
    out = fresh_python(
        "import importlib.util, json, sys\n"
        "from qsiegel import lattice\n"
        "from qsiegel.cli import main\n"
        "rc = main(%r)\n"
        "print(json.dumps([rc, 'fractions' in sys.modules,\n"
        "                  lattice.orbit_layer.cache_info().currsize]\n"
        "                 + [type(sys.modules[m]) is importlib.util._LazyModule\n"
        "                    for m in %r]))\n" % (argv, LAZY))
    expansion, verdict = out[:-1].rsplit("\n", 1)
    assert expansion + "\n" == want
    # no compute module runs, and no convolution table is built
    assert json.loads(verdict) == [0, False, 0] + [True] * len(LAZY)


def test_import_cli_registers_every_module():
    out = fresh_python(
        "import json, sys\n"
        "import qsiegel.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'qsiegel' or m.startswith('qsiegel.'))))\n")
    modules = {"qsiegel"} | {"qsiegel." + p.stem for p in PACKAGE.glob("*.py")
                             if p.stem != "__init__"}
    assert json.loads(out) == sorted(modules)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items()
                                         for n in names])
def test_public_name_is_the_defining_module_object(module, name):
    scope = {}
    exec("from qsiegel import %s" % name, scope)
    assert scope[name] is getattr(importlib.import_module("qsiegel." + module), name)


def test_public_names_are_exactly_the_table():
    import qsiegel
    assert qsiegel.__all__ == sorted(n for names in PUBLIC.values() for n in names)
    with pytest.raises(ImportError):
        exec("from qsiegel import power", {})
