"""Tabulate cusp-form dimensions from the exact formula.

Run after installing the package:  python3 demos/dimension_table.py
"""
from qsiegel.dims import dim_cusp, dimension_report

print("p = 3: cusp and full dimensions against the generating function\n")
print("  k   dim S_k   dim M_k   series")
for k, ds, dm, gf, match in dimension_report().rows[:26]:
    tag = "" if match else "   <-- MISMATCH"
    print("%3d   %7d   %7d   %6d%s" % (k, ds, dm, gf, tag))

print("\nother primes (dim S_k only, k >= 5):\n")
ps = (5, 7, 11, 13)
print("  k   " + "".join("p=%-5d" % p for p in ps))
for k in range(5, 16):
    print("%3d   %s" % (k, "".join("%-7d" % dim_cusp(k, p) for p in ps)))
