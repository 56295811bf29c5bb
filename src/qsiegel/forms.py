"""The form table: every form id `expand` knows, with the build stage that
makes it and its weight, and `check_prec`, the precision floor (4, and 5 for
the chi15 stage, whose unit coefficient is at (5, 1, -2)).  It lives apart
from `ring` so that the CLI's cache path can name and validate forms without
loading the construction code.
"""

# Form id -> (stage, weight), in output order.  GeneratorSet.build(prec,
# upto=stage) makes the forms of that stage and of every stage before it.
STAGES = ("phi", "chi5", "chi15")
FORMS = {"E2": ("phi", 2), "E4": ("phi", 4), "E6": ("phi", 6), "E8": ("phi", 8),
         "E10": ("phi", 10), "phi2": ("phi", 2), "phi4": ("phi", 4),
         "phi6": ("phi", 6), "phi8": ("phi", 8), "phi10": ("phi", 10),
         "chi5a": ("chi5", 5), "chi5b": ("chi5", 5), "chi15": ("chi15", 15),
         "delta20a": ("chi15", 20), "delta20b": ("chi15", 20)}


def check_prec(prec, stage):
    """Raise ValueError unless prec meets the floor of the stage."""
    floor = 5 if stage == "chi15" else 4
    if prec < floor:
        raise ValueError("prec must be >= %d (stage %s)" % (floor, stage))
