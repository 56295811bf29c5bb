"""Exact Fourier expansions for the graded ring of degree-two modular forms
on the discriminant-6 quaternion group, with verification suites for the
generator tables, polynomial relations, span structure, and cusp-form
dimension formula.

The compute modules `exactnum`, `dims`, `eisenstein`, `fourier`, `diffop`
and `ring` load lazily (`importlib.util.LazyLoader`): each is in
`sys.modules` and is a package attribute from the start, and its code runs on
the first attribute access.  So `import qsiegel.cli` runs only `cli`, `forms`
and `lattice`, which is all a cached `expand` needs.  The public names below
resolve on first use through the module `__getattr__` (PEP 562).
"""
import importlib.util
import sys


def _lazy(name):
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


exactnum, dims, eisenstein, fourier, diffop, ring = map(
    _lazy, ("exactnum", "dims", "eisenstein", "fourier", "diffop", "ring"))

# Public name -> the module that defines it.
_PUBLIC = {
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
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


__version__ = "0.1.0"
