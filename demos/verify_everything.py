"""Run every verification layer in one sitting: reference tables, polynomial
relations, span structure, and the dimension formula.

Run after installing the package:  python3 demos/verify_everything.py
(takes a few seconds)
"""
import sys
import time

from qsiegel.cli import verify_tables
from qsiegel.dims import dimension_report
from qsiegel.ring import (GeneratorSet, verify_chi5_square_relations,
                          verify_polynomial_relations, verify_structure)

t0 = time.time()
PREC = 12

checked, failures = verify_tables(PREC, None)
print("[tables]     %d tabulated values, %d mismatches" % (checked, len(failures)))

gens = GeneratorSet.build(PREC)
print("[build]      all generators to grade %d  (%.1fs)" % (PREC, time.time() - t0))

relations = verify_chi5_square_relations(gens) + verify_polynomial_relations(gens)
for rep in relations:
    print("[relations]  %-26s %s" % (rep.name, "ok" if rep.ok else "FAIL"))

structure = verify_structure(20, gens)
*rows, independence = structure.rows  # weight rows 0..20, span rows, independence
print("[structure]  weights 0..20 ranks vs dimensions: %s"
      % ("all equal" if all(r.ok for r in rows[:21]) else "MISMATCH"))
for row in rows[21:]:
    print("[structure]  %-22s rank %2d / %2d" % (row.name, row.rank, row.expected))
print("[structure]  E2 E4 chi5a E6 independent: delta20a %s at grade %d"
      % ("!= 0" if independence.ok else "= 0", independence.prec))

dims = dimension_report()
bad = [row for row in dims.rows if not row[4]]
print("[dims]       dimension vs generating function, k <= 244: %d mismatches"
      % len(bad))

ok = (not failures and all(rep.ok for rep in relations) and structure.ok and dims.ok)
print("\neverything verified" if ok else "\nTHERE WERE FAILURES")
print("total %.1fs" % (time.time() - t0))
sys.exit(0 if ok else 1)
