"""Walk through the construction of the six generators and print the opening
rows of each expansion.

Run after installing the package:  python3 demos/expand_generators.py
"""
from qsiegel.ring import GeneratorSet

PREC = 8

print("building all generators to grade %d ..." % PREC)
gens = GeneratorSet.build(PREC)

print("""
The ring is generated in weights 2, 4, 6 by Eisenstein series, in weight 5 by
two cusp forms chi5a, chi5b found as formal square roots, and in weight 15 by
chi15, the exact quotient of a weight-20 bracket by a weight-5 root.
""")

for name, s in (("E2", gens.e2), ("E4", gens.e4), ("E6", gens.e6),
                ("chi5a", gens.chi5a), ("chi5b", gens.chi5b),
                ("chi15", gens.chi15)):
    rows = s.sorted_items()
    print("%s  (weight %d, %d nonzero coefficients to grade %d)"
          % (name, s.weight, len(rows), s.prec))
    for eta, v in rows[:6]:
        print("   C%s = %s" % (eta, v))
    if len(rows) > 6:
        print("   ...")
    print()

print("normalizations:")
print("   chi5a(2,0,-1) =", gens.chi5a.coeff((2, 0, -1)))
print("   chi5b(2,1,-1) =", gens.chi5b.coeff((2, 1, -1)))
print("   chi15(5,1,-2) =", gens.chi15.coeff((5, 1, -2)))
print("   chi15 equals its companion quotient delta20b / chi5a: checked by build,"
      " which raises if they differ")
