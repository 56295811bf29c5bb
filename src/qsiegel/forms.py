"""The form table: every form id `expand` knows, with the build stage that
makes it and its weight, and `check_prec`, the one precision range: the floor
(4, and 5 for the chi15 stage, whose unit coefficient is at (5, 1, -2)) and
the ceiling MAX_PREC.  It lives apart from `ring` so that the CLI's cache
path can name and validate forms without loading the construction code.
"""
from .lattice import MAX_GRADE

# Form id -> (stage, weight), in output order.  GeneratorSet.build(prec,
# upto=stage) makes the forms of that stage and of every stage before it.
STAGES = ("phi", "chi5", "chi15")
FORMS = {"E2": ("phi", 2), "E4": ("phi", 4), "E6": ("phi", 6), "E8": ("phi", 8),
         "E10": ("phi", 10), "phi2": ("phi", 2), "phi4": ("phi", 4),
         "phi6": ("phi", 6), "phi8": ("phi", 8), "phi10": ("phi", 10),
         "chi5a": ("chi5", 5), "chi5b": ("chi5", 5), "chi15": ("chi15", 15),
         "delta20a": ("chi15", 20), "delta20b": ("chi15", 20)}
# Stage -> the deepest prec it is built at (82, 80, 78): each stage after
# "phi" works 2 grades deeper, and the kernel reaches lattice.MAX_GRADE.
MAX_PREC = {stage: MAX_GRADE - 2 * i for i, stage in enumerate(STAGES)}


def check_prec(prec, stage):
    """Raise ValueError unless prec lies from the stage's floor to MAX_PREC."""
    floor, ceiling = (5 if stage == "chi15" else 4), MAX_PREC[stage]
    if prec < floor:
        raise ValueError("prec must be >= %d (stage %s)" % (floor, stage))
    if prec > ceiling:
        raise ValueError("stage %s at prec %d needs grade %d; the convolution kernel "
                         "reaches grade %d" % (stage, prec, prec + MAX_GRADE - ceiling,
                                               MAX_GRADE))
