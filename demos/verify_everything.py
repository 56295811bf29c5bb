"""Run every verification layer in one sitting: reference tables, polynomial
relations, span structure, and the dimension formula, each printed as
`qsiegel verify --suite <suite>` prints it, on one set of generators.

Run after installing the package:  python3 demos/verify_everything.py
(takes a few seconds)
"""
import sys
import time

from qsiegel.cli import verify_suite
from qsiegel.ring import GeneratorSet

t0 = time.time()
PREC = 12

gens = GeneratorSet.build(PREC)
print("[build] all generators to grade %d  (%.1fs)" % (PREC, time.time() - t0))

ok = True
for suite in ("tables", "relations", "structure", "dims"):
    lines, passed = verify_suite(suite, gens, 20)
    print("\n".join("[%s] %s" % (suite, line) for line in lines))
    ok = ok and passed
print("\neverything verified" if ok else "\nTHERE WERE FAILURES")
print("total %.1fs" % (time.time() - t0))
sys.exit(0 if ok else 1)
