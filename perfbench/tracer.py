#!/usr/bin/env python3
"""Run one `qsiegel` CLI request with a span around each layer call.

    python3 perfbench/tracer.py SPANS.json -- <qsiegel arguments>

Imports `qsiegel.cli` (timed: that is `import_s`), replaces each function in
TARGETS by a wrapper in every qsiegel module namespace that holds it, runs
the CLI's `main`, and at exit writes the spans (name, start, end, parent
index) and a few in-process counters to SPANS.json.  Exits with the CLI's
exit code; stdout is exactly the CLI's.

Per-coefficient functions (lattice.decompositions, called about 10^6 times a
run, and the other lattice/exactnum helpers) get no span: their lru_cache
statistics are read at exit instead.
"""
import json
import sys
import time

# (module, attribute, span name).  An attribute "Class.method" patches the
# class.  layers.py maps span names to metrics.
TARGETS = (
    ("qsiegel.exactnum", "generalized_bernoulli", "exactnum.generalized_bernoulli"),
    ("qsiegel.eisenstein", "eisenstein_series", "eisenstein.eisenstein_series"),
    ("qsiegel.fourier", "multiply", "fourier.multiply"),
    ("qsiegel.fourier", "linear_combine", "fourier.linear_combine"),
    ("qsiegel.fourier", "sqrt_monic", "fourier.sqrt_monic"),
    ("qsiegel.fourier", "divide_exact", "fourier.divide_exact"),
    ("qsiegel.fourier", "rank_of_span", "fourier.rank_of_span"),
    ("qsiegel.diffop", "bracket", "diffop.bracket"),
    ("qsiegel.ring", "GeneratorSet.build", "ring.build"),
    ("qsiegel.ring", "GeneratorSet.monomial", "ring.monomial"),
    ("qsiegel.ring", "monomial_basis", "ring.monomial_basis"),
    ("qsiegel.ring", "verify_structure", "ring.verify_structure"),
    ("qsiegel.ring", "verify_polynomial_relations", "ring.verify_polynomial_relations"),
    ("qsiegel.ring", "verify_chi5_square_relations", "ring.verify_chi5_square_relations"),
    ("qsiegel.dims", "dimension_report", "dims.dimension_report"),
    ("qsiegel.cli", "main", "cli.main"),
    ("qsiegel.cli", "cache_lookup", "cli.cache_lookup"),
    ("qsiegel.cli", "cache_store", "cli.cache_store"),
    ("qsiegel.cli", "parse_json", "cli.parse_json"),
    ("qsiegel.cli", "parse_csv", "cli.parse_csv"),
    ("qsiegel.cli", "record_from_series", "cli.record_from_series"),
    ("qsiegel.cli", "emit_json", "cli.emit_json"),
    ("qsiegel.cli", "emit_csv", "cli.emit_csv"),
)
SERIES_OUT = {"fourier.multiply", "fourier.linear_combine", "fourier.sqrt_monic",
              "fourier.divide_exact"}
HOOK_SPAN = "trace.hook"  # time spent in the hooks below; no metric reads it


def height_bits(series):
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in series.coeffs.values()), default=0)


class Tracer:
    def __init__(self, lattice):
        self.lattice = lattice
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {"fourier.height_bits": 0, "fourier.rank_cells": 0,
                         "cli.cache_hits": 0, "cli.cache_misses": 0}
        self.series_keys = set()

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        hook = self.hook

        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._open(HOOK_SPAN)
            try:
                hook(name, args, result)
            finally:
                self._close()
            return result

        return traced

    def hook(self, name, args, result):
        c = self.counters
        if name in SERIES_OUT:
            c["fourier.height_bits"] = max(c["fourier.height_bits"], height_bits(result))
        elif name == "fourier.rank_of_span" and args[0]:
            forms = args[0]
            c["fourier.rank_cells"] += len(forms) * (
                1 + len(self.lattice.enumerate_cone(forms[0].prec)))
        elif name == "eisenstein.eisenstein_series":
            self.series_keys.add((args[0].k, args[1]))
        elif name == "cli.cache_lookup" and args[0]:
            c["cli.cache_hits" if result is not None else "cli.cache_misses"] += 1

    def install(self, modules):
        """Patch every target in every module namespace that imports it."""
        for mod_name, attr, name in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def snapshot(self, import_s, genbern):
        """Everything a request recorded, as one JSON-ready dict."""
        decomp = self.lattice.decompositions.cache_info()
        grades = self.lattice.layer.cache_info().currsize
        counters = dict(self.counters)
        counters.update({
            "exactnum.genbern_misses": genbern.cache_info().misses,
            "lattice.decomp_lookups": decomp.hits + decomp.misses,
            "lattice.decomp_misses": decomp.misses,
            # layers 1..grades are cached: the cone points of the deepest grade used
            "lattice.cone_points": len(self.lattice.enumerate_cone(grades)) if grades else 0,
            "eisenstein.series_distinct": len(self.series_keys),
        })
        return {"import_s": import_s, "spans": self.spans, "counters": counters}


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <qsiegel arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import qsiegel.cli
    import_s = time.perf_counter() - t0
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "qsiegel" or name.startswith("qsiegel.")}
    genbern = modules["qsiegel.exactnum"].generalized_bernoulli
    tracer = Tracer(modules["qsiegel.lattice"])
    tracer.install(modules)
    try:
        return qsiegel.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.snapshot(import_s, genbern), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
