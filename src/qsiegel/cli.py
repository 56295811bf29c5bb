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
vec]), one file `<form>.json` per form, written atomically, in the directory
that `--cache-dir` names; without it `expand` reads and writes no cache.  A
request meets forms.check_prec before any lookup; a valid record (see
`_read_record`) at precision X serves any request up to X by truncation.  On
a miss the form is recomputed and its record written, unless a valid one at
least as deep is there.  A failed write only warns.

Forms are computed in batches: `expand` builds the GeneratorSet stage that
makes the form (see forms.FORMS) and caches every member of it.  A record
that passes `_read_record` is served as written, so a cache directory is
trusted like the installed package; `verify` never reads or writes it, but
builds the full set and prints the report lines of one suite from
`verify_suite`.

`ring` and `dims` are used as module objects (`ring.GeneratorSet.build`,
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

from . import dims, ring
from .forms import FORMS, check_prec
from .lattice import grade, norm_m, position_count, positions

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

def _cache_path(cache_dir, form):
    return os.path.join(cache_dir, form + ".json")


def _fields_crc(den, vec):
    return zlib.crc32(json.dumps([den, vec]).encode())


def _read_record(cache_dir, form):
    """(prec, den, vec) of the record at _cache_path(cache_dir, form) if it
    is valid: its version, form and weight are right, check_prec accepts its
    prec, den is an int > 0, vec holds one int per position of its prec,
    gcd(den, *vec) is 1 and its checksum matches.  None otherwise."""
    try:
        with open(_cache_path(cache_dir, form)) as fh:
            rec = parse_json(fh.read())
        prec, den, vec = rec["prec"], rec["den"], rec["vec"]
        if (rec["version"], rec["form"], rec["weight"]) == (CACHE_VERSION, form, FORMS[form][1]):
            check_prec(prec, FORMS[form][0])  # before position_count counts a hostile prec
            if (type(den) is int and den > 0 and len(vec) == position_count(prec)
                    and all(type(v) is int for v in vec) and gcd(den, *vec) == 1
                    and rec["crc32"] == _fields_crc(den, vec)):
                return prec, den, vec
    # A nested record exhausts the parser's recursion.
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        pass
    return None


def cache_store(cache_dir, form, s):
    """Write the form's record atomically, unless a valid record at least as
    deep as s is already there; on an OSError, warn on stderr and remove the
    temporary file."""
    old = _read_record(cache_dir, form) if cache_dir else None
    if not cache_dir or (old and old[0] >= s.prec):
        return
    rec = {"form": form, "weight": s.weight, "prec": s.prec, "den": s.den,
           "vec": s.vec, "version": CACHE_VERSION, "crc32": _fields_crc(s.den, s.vec)}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(emit_json(rec))
        os.replace(tmp, _cache_path(cache_dir, form))
    except OSError as exc:
        print("warning: %s not cached: %s" % (form, exc), file=sys.stderr)
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


def cache_lookup(cache_dir, form, prec):
    """(den, vec) of the valid record of the form (see _read_record) if its
    prec is at least prec; vec may run past prec's positions.  None on a miss."""
    rec = _read_record(cache_dir, form) if cache_dir else None
    return rec[1:] if rec and rec[0] >= prec else None


# ---------------------------------------------------------------- expand

def cmd_expand(args):
    if args.form not in FORMS:
        raise ValueError("unknown form %r; known: %s" % (args.form, " ".join(FORMS)))
    check_prec(args.prec, FORMS[args.form][0])
    fields = cache_lookup(args.cache_dir, args.form, args.prec)
    if fields is None:
        members = ring.GeneratorSet.build(args.prec, FORMS[args.form][0]).members()
        for form, s in members.items():
            cache_store(args.cache_dir, form, s)
        fields = members[args.form].den, members[args.form].vec
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


def verify_suite(suite, gens, kmax):
    """(lines, ok): the lines `verify --suite <suite>` prints before its verdict
    and whether the suite passed, on the set gens (tables, relations and
    structure) and to weight kmax (structure).  Tables compare the bundled
    tables with gens at every tabulated index of grade <= gens.prec, zeros too;
    dims takes neither and compares every weight of dims.dimension_report."""
    if suite == "tables":
        from fractions import Fraction  # not at the top: a cache hit never loads it
        checked, lines = 0, []
        for columns, rows in _load_fixture_tables():
            cols = [(label, gens.monomial(powers)) for label, powers in columns]
            for eta, values in rows:
                if grade(eta) > gens.prec:
                    continue
                for (label, col), want in zip(cols, values):
                    checked += 1
                    got = col.coeff(eta)
                    if got != Fraction(want):
                        lines.append("  MISMATCH %s at %r: computed %s, table %s"
                                     % (label, eta, got, want))
        return (["tables: %d tabulated values checked, %d mismatches"
                 % (checked, len(lines))] + lines, not lines)
    if suite == "relations":
        lines, reports = [], (ring.verify_chi5_square_relations(gens)
                              + ring.verify_polynomial_relations(gens))
        for rep in reports:
            lines.append("%s: %s" % (rep.name, "ok" if rep.ok else "FAIL"))
            lines += ["  residual %s at %r" % (v, eta) for eta, v in rep.mismatches[:5]]
        return lines, all(rep.ok for rep in reports)
    if suite == "structure":
        report = ring.verify_structure(kmax, gens)
        *rows, last = report.rows  # the last row is ring.INDEPENDENCE
        lines = ["%s: rank %d expected %d %s"
                 % (row.name, row.rank, row.expected, "ok" if row.ok else "FAIL")
                 for row in rows]
        lines.append("%s (Jacobian criterion): delta20a %s %d %s"
                     % (last.name, "!= 0 at grade" if last.ok else "= 0 to grade",
                        last.prec, "ok" if last.ok else "FAIL"))
        return lines, report.ok
    report = dims.dimension_report()
    bad = [row for row in report.rows if not row[4]]
    lines = ["dims: %d weights compared, %d mismatches" % (len(report.rows), len(bad))]
    if not bad:
        lines.append("  proves equality for every k >= 5 (both sides degree-3 "
                     "quasi-polynomials, period dividing 60); assumes the dimension "
                     "formula as implemented and the tabulated k <= 4 values in "
                     "dims.dim_modular")
    lines += ["  MISMATCH k=%d: dim %d, generating function %d" % (k, dm, gf)
              for k, _ds, dm, gf, _m in bad]
    return lines, report.ok


def cmd_verify(args):
    if args.suite == "structure" and args.kmax < 0:
        raise ValueError("kmax must be >= 0")
    gens = None if args.suite == "dims" else ring.GeneratorSet.build(args.prec)
    lines, ok = verify_suite(args.suite, gens, args.kmax)
    print("\n".join(lines + ["verify %s: %s" % (args.suite, "PASS" if ok else "FAIL")]))
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
    parser.add_argument("--cache-dir", help="directory for expansions cached by "
                                            "expand (default: no cache)")
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
