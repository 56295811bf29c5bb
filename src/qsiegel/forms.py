"""The form table: every form id `expand` knows, with the build stage that
makes it and its weight, and `check_prec`, the one statement of the stage
rules: each stage's floor (4, and 5 for the chi15 stage, whose unit
coefficient is at (5, 1, -2)), its build grade and that grade's ceiling.  It
lives apart from `ring` so that the CLI's cache path can name and validate
forms without loading the construction code.
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


def check_prec(prec, stage):
    """The grade GeneratorSet.build works at to make the stage exact at prec:
    each stage after "phi" works 2 grades deeper, the grade of the leading
    index that its square roots or quotients lose.  Raises ValueError for an
    unknown stage, a prec that is not an int or is below the stage's floor,
    or a grade past MAX_GRADE."""
    if stage not in STAGES:
        raise ValueError("unknown stage %r; known: %s" % (stage, " ".join(STAGES)))
    if type(prec) is not int:
        raise ValueError("prec must be an int, got %r" % (prec,))
    floor = 5 if stage == "chi15" else 4
    if prec < floor:
        raise ValueError("prec must be >= %d (stage %s)" % (floor, stage))
    grade = prec + 2 * STAGES.index(stage)
    if grade > MAX_GRADE:
        raise ValueError("stage %s at prec %d needs grade %d; the convolution kernel "
                         "reaches grade %d" % (stage, prec, grade, MAX_GRADE))
    return grade
