"""Committed mutants: named source edits that the tests must catch.

Run `python tests/mutants.py` from anywhere.  Each mutant replaces one exact
text of a file under src/qsiegel in a fresh copy of src/, tests/, demos/
and pyproject.toml, then runs its test files there with -x, a fixed
hypothesis seed and the "mutants" profile of tests/conftest.py, which skips
shrinking; the fresh copy also starts with no hypothesis database, so every
run draws the same examples.  A mutant is caught when pytest reports
a failing test (exit 1).  The runner first runs every named test file on
the unmutated copy, which must pass, and exits nonzero if that fails or any
mutant survives.

tests/test_source.py checks in tier-1 that each old text occurs exactly
once, so a refactor that moves the code cannot quietly retire a mutant.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 0
KERNEL_TESTS = ("tests/test_kernels.py", "tests/test_fourier.py", "tests/test_diffop.py")
RANK_TESTS = ("tests/test_kernels.py", "tests/test_fourier.py")
CLI_TESTS = ("tests/test_cli.py",)
RING_TESTS = ("tests/test_ring.py",)
LATTICE_TESTS = ("tests/test_lattice.py",)
STAGE_TESTS = ("tests/test_ring.py", "tests/test_cli.py")
EISENSTEIN_TESTS = ("tests/test_eisenstein.py",)
EXACTNUM_TESTS = ("tests/test_exactnum.py",)
DIMS_TESTS = ("tests/test_dims.py",)

# (name, file under src/qsiegel, exact old text, new text, test files)
MUTANTS = (
    ("product: drop the mirror sign", "fourier.py",
     "out[m - start] = sign * s", "out[m - start] = s", KERNEL_TESTS),
    ("product: halve the fixed-target pair-orbit term", "fourier.py",
     "+ 2 * sum(map(mul, map(Fg, A2), map(Gg, B2)))",
     "+ sum(map(mul, map(Fg, A2), map(Gg, B2)))", KERNEL_TESTS),
    ("product: sum fixed targets of odd products", "fourier.py",
     "if sign > 0:", "if sign:", KERNEL_TESTS),
    ("product: drop the split's halving", "fourier.py",
     "return [(a + b) // 2 for", "return [a + b for", KERNEL_TESTS),
    ("product: add for both halves of the split", "fourier.py",
     "for op in (add, sub))", "for op in (add, add))", KERNEL_TESTS),
    ("product: read only the first operand's parity", "fourier.py",
     "for V, W in ((F, G), (G, F)):", "for V, W in ((F, G),):", KERNEL_TESTS),
    ("_parity: 'neither' reads as odd", "fourier.py",
     "list(map(neg, head)) else 0", "list(map(neg, head)) else -1", KERNEL_TESTS),
    ("_lead: refuse a lead at the series' top grade", "fourier.py",
     "if 0 <= x <= s.prec else None", "if 0 <= x < s.prec else None", KERNEL_TESTS),
    ("_solve: drop the gcd sign fix", "fourier.py",
     "k = k if c > 0 else -k", "k = k", KERNEL_TESTS),
    ("rank_of_span: never take the general path", "fourier.py",
     "if not all(parities):", "if False:", RANK_TESTS),
    ("_read_record: drop the checksum comparison", "cli.py",
     'rec["crc32"] == _fields_crc(den, vec)', "True", CLI_TESTS),
    ("_read_record: drop the lowest-terms check", "cli.py",
     "gcd(den, *vec) == 1", "True", CLI_TESTS),
    ("_read_record: drop the vector length check", "cli.py",
     "len(vec) == position_count(prec)", "True", CLI_TESTS),
    ("_read_record: drop the int entry check", "cli.py",
     "all(type(v) is int for v in vec)", "True", CLI_TESTS),
    ("_read_record: drop den > 0", "cli.py",
     "den > 0", "True", CLI_TESTS),
    ("_read_record: match the header with itself", "cli.py",
     '== (CACHE_VERSION, form, FORMS[form][1])',
     '== (rec["version"], rec["form"], rec["weight"])', CLI_TESTS),
    ("_read_record: skip check_prec on the record's prec", "cli.py",
     "check_prec(prec, FORMS[form][0])", "None", CLI_TESTS),
    ("cmd_expand: drop check_prec", "cli.py",
     "check_prec(args.prec, FORMS[args.form][0])", "None", CLI_TESTS),
    ("cmd_expand: check_prec after the lookup", "cli.py",
     "    check_prec(args.prec, FORMS[args.form][0])\n"
     "    fields = cache_lookup(args.cache_dir, args.form, args.prec)\n",
     "    fields = cache_lookup(args.cache_dir, args.form, args.prec)\n"
     "    check_prec(args.prec, FORMS[args.form][0])\n", CLI_TESTS),
    ("cache_store: overwrite a deeper record", "cli.py",
     "if not cache_dir or (old and old[0] >= s.prec):", "if not cache_dir:", CLI_TESTS),
    ("monomials: drop the top exponent", "ring.py",
     "range(weight // w, -1, -1)", "range(weight // w - 1, -1, -1)", RING_TESTS),
    ("UNITS: drop chi5b*chi15", "ring.py",
     ', (("chi5b", 1), ("chi15", 1)))', ")", RING_TESTS),
    ("verify_structure: weight rows one grade below their stated grade", "ring.py",
     "[(_stated_grade(k), monomial_basis, (k,))",
     "[(_stated_grade(k) - 1, monomial_basis, (k,))", STAGE_TESTS),
    ("INDEPENDENCE: stated at its weight's grade", "ring.py",
     "grade(CHI5B_LEAD) + grade(CHI15_UNIT_INDEX))", "_stated_grade(20))", STAGE_TESTS),
    ("verify_structure: cut from gens, not the one build", "ring.py",
     "else deep._cut(p)", "else gens._cut(p)", STAGE_TESTS),
    ("monomial: accept a negative exponent", "ring.py",
     "type(n) is not int or n < 0", "type(n) is not int", RING_TESTS),
    ("monomial: key phi2 apart from E2", "ring.py",
     '("E2" if f == "phi2" else f, n)', "(f, n)", RING_TESTS),
    ("build: drop the vanishing-unit check", "ring.py",
     "if not unit_a or not unit_b:", "if False:", RING_TESTS),
    ("weight rows: E4 in place of phi4", "ring.py",
     'A_GENERATORS = ("E2", "phi4",', 'A_GENERATORS = ("E2", "E4",', RING_TESTS),
    ("w10 rows: drop phi10", "ring.py",
     ' + [(("phi10", 1),)]', "", RING_TESTS),
    ("FIVE_GENERATORS: drop chi5b", "ring.py",
     'FIVE_GENERATORS = A_GENERATORS + ("chi5b",)', "FIVE_GENERATORS = A_GENERATORS",
     RING_TESTS),
    ("W10_MONOMIALS: E10 last", "ring.py",
     '((("E10", 1),),) + tuple(monomials(10, E_GENERATORS))',
     'tuple(monomials(10, E_GENERATORS)) + ((("E10", 1),),)', RING_TESTS),
    ("CHI5_QUINTIC: perturb a coefficient", "ring.py",
     "Fraction(5005, 8149248)", "Fraction(5006, 8149248)", RING_TESTS),
    ("layer: cut the box's y bound to x // 2", "lattice.py",
     "3 * x // 4 + 1", "x // 2 + 1", LATTICE_TESTS),
    ("orbit_layer: keep both pairs of each pair-orbit", "lattice.py",
     "if st > 0 or st == 0 < sa:", "if st > 0:", LATTICE_TESTS),
    ("orbit_layer: drop the fixed-point pairs", "lattice.py",
     "st == 0 < sa", "st == 0 <= sa", LATTICE_TESTS),
    ("check_prec: 3 grades per stage", "forms.py",
     "prec + 2 * STAGES.index(stage)", "prec + 3 * STAGES.index(stage)", STAGE_TESTS),
    ("check_prec: return prec, not the grade", "forms.py",
     "return grade", "return prec", STAGE_TESTS),
    ("check_prec: drop the unknown-stage check", "forms.py",
     "if stage not in STAGES:", "if False:", STAGE_TESTS),
    ("check_prec: accept a prec of any type", "forms.py",
     "type(prec) is not int", "False", STAGE_TESTS),
    ("local data: v_p(f) read from a", "eisenstein.py",
     "vf.get(p, 0)", "va.get(p, 0)", EISENSTEIN_TESTS),
    ("local factor: flip the sign of the D2 term", "eisenstein.py",
     "- c * p ** (k - 2) * sum(q ** t for t in range(ap))",
     "+ c * p ** (k - 2) * sum(q ** t for t in range(ap))", EISENSTEIN_TESTS),
    ("weight factor: drop the D2 local factors", "eisenstein.py",
     "* prod(p ** (k - 1) - 1 for p in factorize(D2))", "", EISENSTEIN_TESTS),
    ("fundamental_discriminant_split: f = g", "exactnum.py",
     "return 4 * s, g // 2", "return 4 * s, g", EXACTNUM_TESTS),
    ("generalized_bernoulli: drop the 1 - (-1)^m factor", "exactnum.py",
     "(1 - (-1) ** m) * s", "s", EXACTNUM_TESTS),
    ("_character_support: include a = ceil(|d|/2)", "exactnum.py",
     "range(1, (abs(d) + 1) // 2)", "range(1, (abs(d) + 1) // 2 + 1)", EXACTNUM_TESTS),
    ("dim_cusp: drop the formula-output check", "dims.py",
     "if val.denominator != 1 or val < 0:", "if False:", DIMS_TESTS),
)


def _copy(dest):
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "demos", dest / "demos")  # tests/test_cli.py runs a demo
    shutil.copy(ROOT / "pyproject.toml", dest)


def _env(dest):
    return dict(os.environ, PYTHONPATH=str(dest / "src"))


def _pytest(dest, tests):
    """pytest's exit code on the test files, importing qsiegel from dest."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=%d" % SEED, "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=dest, env=_env(dest), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(name, path, old, new, tests):
    """pytest's exit code with the mutant applied; raises if its old text
    does not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        dest = pathlib.Path(tmp)
        _copy(dest)
        target = dest / "src" / "qsiegel" / path
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError("%s: old text occurs %d times in %s"
                             % (name, text.count(old), path))
        target.write_text(text.replace(old, new))
        return _pytest(dest, tests)


def main():
    tests = sorted({t for m in MUTANTS for t in m[4]})
    with tempfile.TemporaryDirectory() as tmp:
        dest = pathlib.Path(tmp)
        _copy(dest)
        # an installed qsiegel must not shadow the copy
        where = subprocess.run([sys.executable, "-c", "import qsiegel; print(qsiegel.__file__)"],
                               cwd=dest, env=_env(dest), capture_output=True, text=True)
        if not where.stdout.startswith(str(dest.resolve())):
            sys.exit("qsiegel imports from %r, not the copy" % where.stdout.strip())
        if _pytest(dest, tests):
            sys.exit("the unmutated source fails %s" % " ".join(tests))
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(*mutant)
        verdict = "caught" if code == 1 else "SURVIVED (pytest exit %d)" % code
        print("%-50s %s in %.1f s" % (mutant[0], verdict, time.perf_counter() - start))
        if code != 1:
            survivors.append(mutant[0])
    print("%d of %d mutants caught" % (len(MUTANTS) - len(survivors), len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
