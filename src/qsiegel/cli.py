"""Command-line surface: expansion tables for every constructed form,
verification suites (bundled reference tables, polynomial relations, span
structure, dimensions), dimension tables, and a persistent expansion cache.
Input is refused by a ValueError from the code that owns the rule; `main`
alone prints it as one `error: <reason>` line on stderr and returns 2.

Record formats
--------------
CSV: a leading comment line `# form=<id> weight=<w> prec=<X>`, a header
`x,y,z,m,coeff`, then one row per nonzero coefficient in canonical order,
with `coeff` as an exact `num/den` (or plain integer) string.  JSON carries
the same fields as an object.  A cached record is the series' own fields,
`form`, `weight`, `prec`, `den` and `vec` (one int per position, see
`lattice`), plus `version` and `crc32` (zlib.crc32 of the JSON of [den,
vec]), one file per (form, precision), written atomically; a cached record
at precision X serves any request up to X by truncation.  A record that
cannot be read, whose version, form, weight, prec or checksum is wrong, or
whose den and vec are not a series in lowest terms at its prec, is passed
over: a request at prec P meets forms.check_prec before any lookup, then is
served by the first valid record `<form>.p<X>.json` for X from P up to
lattice.MAX_GRADE; with none the form is recomputed and its records written
at P, replacing any at those paths.  A failed write only warns.

Forms are computed in batches: `expand` builds the GeneratorSet stage that
makes the form (see forms.FORMS) and caches every member of it; `verify`
builds, or reads back from the cache, the full set.

`fourier`, `ring` and `dims` are used as module objects
(`fourier.FourierSeries`, `ring.GeneratorSet.build`,
`dims.dimension_report`): they load lazily (see the package docstring), so a
cache hit runs only this module, `forms` and `lattice`, and prints its rows
from the record's integers without `fractions`.
"""
import argparse
import json
import os
import sys
import tempfile
import zlib
from math import gcd

from . import dims, fourier, ring
from .forms import FORMS, check_prec
from .lattice import MAX_GRADE, grade, norm_m, position_count, positions

CACHE_ENV = "QSIEGEL_CACHE_DIR"
CACHE_VERSION = 2

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------- records

def _record(form, weight, prec, den, vec):
    """The record of the values vec[n] / den at the positions n of grade <=
    prec: one row per nonzero value, printed as str(Fraction) prints it."""
    rows = []
    for eta, v in zip(positions(prec), vec):
        if v:
            g = gcd(v, den)
            rows.append([*eta, norm_m(eta),
                         "%d/%d" % (v // g, den // g) if g < den else str(v // g)])
    return {"form": form, "weight": weight, "prec": prec, "rows": rows}


# Kept for perfbench/tracer.py, which patches it by name (ROADMAP item 1).
def record_from_series(form, s):
    return _record(form, s.weight, s.prec, s.den, s.vec)


def emit_json(rec):
    return json.dumps(rec)


# Kept for perfbench/tracer.py, which times cache parsing here (ROADMAP item 1).
def parse_json(text):
    return json.loads(text)


def emit_csv(rec):
    lines = ["# form=%s weight=%d prec=%d" % (rec["form"], rec["weight"], rec["prec"]),
             "x,y,z,m,coeff"]
    for x, y, z, m, c in rec["rows"]:
        lines.append("%d,%d,%d,%d,%s" % (x, y, z, m, c))
    return "\n".join(lines) + "\n"


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
    rows = []
    for ln in lines[2:]:
        x, y, z, m, c = ln.split(",")
        rows.append([int(x), int(y), int(z), int(m), c])
    return {"form": meta["form"], "weight": int(meta["weight"]),
            "prec": int(meta["prec"]), "rows": rows}


# ---------------------------------------------------------------- cache

def _cache_path(cache_dir, form, prec):
    return os.path.join(cache_dir, "%s.p%d.json" % (form, prec))


def _fields_crc(den, vec):
    return zlib.crc32(json.dumps([den, vec]).encode())


def cache_store(cache_dir, form, s):
    """Write the form's record atomically, replacing any record at its path;
    on an OSError, warn on stderr and remove the temporary file."""
    if not cache_dir:
        return
    rec = {"form": form, "weight": s.weight, "prec": s.prec, "den": s.den,
           "vec": s.vec, "version": CACHE_VERSION, "crc32": _fields_crc(s.den, s.vec)}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(emit_json(rec))
        os.replace(tmp, _cache_path(cache_dir, form, s.prec))
    except OSError as exc:
        print("warning: %s not cached: %s" % (form, exc), file=sys.stderr)
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


def cache_lookup(cache_dir, form, prec):
    """(den, vec) of the first valid record at _cache_path(cache_dir, form,
    p) for p from prec up to MAX_GRADE, the deepest grade a build writes; vec
    may run past prec's positions.  None on a miss.  A record is valid if its
    version, form, weight and prec are right, den is an int > 0, vec holds
    one int per position of its prec, gcd(den, *vec) is 1 and its checksum
    matches; any other record, or a path that cannot be read, is passed over."""
    if not cache_dir:
        return None
    for p in range(prec, MAX_GRADE + 1):
        try:
            with open(_cache_path(cache_dir, form, p)) as fh:
                rec = parse_json(fh.read())
            den, vec = rec["den"], rec["vec"]
            if ((rec["version"], rec["form"], rec["weight"], rec["prec"])
                    == (CACHE_VERSION, form, FORMS[form][1], p)
                    and type(den) is int and den > 0 and len(vec) == position_count(p)
                    and all(type(v) is int for v in vec) and gcd(den, *vec) == 1
                    and rec["crc32"] == _fields_crc(den, vec)):
                return den, vec
        # A nested record exhausts the parser's recursion.
        except (OSError, ValueError, LookupError, TypeError, RecursionError):
            pass
    return None


def _build_and_store(prec, stage, cache_dir):
    gens = ring.GeneratorSet.build(prec, stage)
    for form, s in gens.members().items():
        cache_store(cache_dir, form, s)
    return gens


def _get_gens(prec, cache_dir):
    forms = {}
    for form in FORMS:
        hit = cache_lookup(cache_dir, form, prec)
        if hit is None:
            return _build_and_store(prec, "chi15", cache_dir)
        forms[form] = fourier.FourierSeries.from_vector(FORMS[form][1], prec, *hit)
    return ring.GeneratorSet.from_records(prec, forms)


# ---------------------------------------------------------------- expand

def cmd_expand(args):
    if args.form not in FORMS:
        raise ValueError("unknown form %r; known: %s" % (args.form, " ".join(FORMS)))
    check_prec(args.prec, FORMS[args.form][0])
    fields = cache_lookup(args.cache_dir, args.form, args.prec)
    if fields is None:
        gens = _build_and_store(args.prec, FORMS[args.form][0], args.cache_dir)
        s = gens.members()[args.form]
        fields = s.den, s.vec
    rec = _record(args.form, FORMS[args.form][1], args.prec, *fields)
    if not rec["rows"]:
        raise ValueError("%s has no rows at prec %d; increase --prec"
                         % (args.form, args.prec))
    out = emit_json(rec) if args.format == "json" else emit_csv(rec)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


# ---------------------------------------------------------------- verify

def _descriptor_powers(desc):
    """(form id, exponent) pairs of a fixture column like 'phi2^2*phi4'."""
    return tuple((name, int(exp or 1))
                 for name, _, exp in (part.partition("^") for part in desc.split("*")))


def _load_fixture_tables():
    """Each bundled table as [(label, powers)] columns and [(eta, values)]
    rows; a CSV table is one column, its form, labelled by its file name."""
    tables = []
    for name in sorted(os.listdir(FIXTURE_DIR)):
        path = os.path.join(FIXTURE_DIR, name)
        if name.endswith(".csv"):
            with open(path) as fh:
                rec = parse_csv(fh.read())
            tables.append(([(name, ((rec["form"], 1),))],
                           [((x, y, z), [c]) for x, y, z, _m, c in rec["rows"]]))
        elif name.endswith(".json"):
            with open(path) as fh:
                table = json.load(fh)
            tables.append(([(name + ":" + d, _descriptor_powers(d))
                            for d in table["columns"]],
                           [(tuple(r["eta"]), r["values"]) for r in table["rows"]]))
    return tables


def verify_tables(gens):
    """Compare bundled reference tables with the coefficients of the set gens
    on every tabulated index of grade <= gens.prec (explicit zeros included)."""
    from fractions import Fraction  # not at the top: a cache hit never loads it
    checked, failures = 0, []
    for columns, rows in _load_fixture_tables():
        cols = [(label, gens.monomial(powers)) for label, powers in columns]
        for eta, values in rows:
            if grade(eta) > gens.prec:
                continue
            for (label, col), want in zip(cols, values):
                checked += 1
                got = col.coeff(eta)
                if got != Fraction(want):
                    failures.append((label, eta, str(got), want))
    return checked, failures


def cmd_verify(args):
    if args.suite == "structure" and args.kmax < 0:
        raise ValueError("kmax must be >= 0")
    if args.suite != "dims":
        gens = _get_gens(args.prec, args.cache_dir)
    ok = True
    if args.suite == "tables":
        checked, failures = verify_tables(gens)
        print("tables: %d tabulated values checked, %d mismatches"
              % (checked, len(failures)))
        for name, eta, got, want in failures:
            print("  MISMATCH %s at %r: computed %s, table %s" % (name, eta, got, want))
        ok = not failures
    elif args.suite == "relations":
        reports = (ring.verify_chi5_square_relations(gens)
                   + ring.verify_polynomial_relations(gens))
        for rep in reports:
            print("%s: %s" % (rep.name, "ok" if rep.ok else "FAIL"))
            for eta, v in rep.mismatches[:5]:
                print("  residual %s at %r" % (v, eta))
            ok = ok and rep.ok
    elif args.suite == "structure":
        report = ring.verify_structure(args.kmax, gens)
        *rows, last = report.rows  # the last row is ring.INDEPENDENCE
        for row in rows:
            print("%s: rank %d expected %d %s"
                  % (row.name, row.rank, row.expected, "ok" if row.ok else "FAIL"))
        print("%s (Jacobian criterion): delta20a %s %d %s"
              % (last.name, "!= 0 at grade" if last.ok else "= 0 to grade", last.prec,
                 "ok" if last.ok else "FAIL"))
        ok = report.ok
    elif args.suite == "dims":
        report = dims.dimension_report()
        bad = [row for row in report.rows if not row[4]]
        print("dims: %d weights compared, %d mismatches" % (len(report.rows), len(bad)))
        if not bad:
            print("  proves equality for every k >= 5 (both sides degree-3 "
                  "quasi-polynomials, period dividing 60); assumes the dimension "
                  "formula as implemented and the tabulated k <= 4 values in "
                  "dims.dim_modular")
        for k, _ds, dm, gf, _m in bad:
            print("  MISMATCH k=%d: dim %d, generating function %d" % (k, dm, gf))
        ok = report.ok
    print("verify %s: %s" % (args.suite, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------- dims

def cmd_dims(args):
    p, k_from, k_to = args.p, args.k_from, args.k_to
    if k_from > k_to:
        raise ValueError("empty weight range")
    rows = [[k, *dims.dims_3(k)] if p == 3 else [k, dims.dim_cusp(k, p)]
            for k in range(k_from, k_to + 1)]
    if args.format == "json":
        print(json.dumps({"p": p, "columns": ["k", "dim_cusp", "dim_modular"][:len(rows[0])],
                          "rows": rows}))
    else:
        print("k,dim_cusp,dim_modular" if p == 3 else "k,dim_cusp")
        for row in rows:
            print(",".join(str(v) for v in row))
    return 0


# ---------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qsiegel",
        description="Exact Fourier expansions and verification for the "
                    "degree-two graded ring on the discriminant-6 group.")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV),
                        help="directory for cached expansions (default: $%s)" % CACHE_ENV)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", help="print the Fourier expansion of a form")
    p_exp.add_argument("--form", required=True)
    p_exp.add_argument("--prec", type=int, required=True)
    p_exp.add_argument("--format", choices=("json", "csv"), default="csv")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=("tables", "relations", "structure", "dims"))
    p_ver.add_argument("--prec", type=int, default=12)
    p_ver.add_argument("--kmax", type=int, default=20)

    p_dim = sub.add_parser("dims", help="tabulate dimensions")
    p_dim.add_argument("--p", type=int, required=True)
    p_dim.add_argument("--from", dest="k_from", type=int, required=True)
    p_dim.add_argument("--to", dest="k_to", type=int, required=True)
    p_dim.add_argument("--format", choices=("json", "csv"), default="csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_dims(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
