"""Construction of the graded-ring generators — the Eisenstein series E2, E4,
E6 (plus E8, E10 and their phi-normalizations), the two weight-5 cusp forms
chi5a, chi5b obtained as formal square roots, and the weight-15 form chi15
obtained as an exact bracket quotient — with mechanical verification of the
expansion tables, polynomial relations and span dimensions they satisfy.

`GeneratorSet.build(prec, upto)` runs the construction in three stages
("phi", "chi5", "chi15"), each on top of the ones before it, on one set at its
deepest grade that forms every product, and returns a set of that set's
members truncated to prec: the one source of sets.
`GeneratorSet.monomial` is the one way to form a product of powers of a set's
members and the one product cache, shared by all checks, with one id per
series: phi2 is E2.  The polynomial identities are data,
(name, lhs_scale, lhs, [(coefficient, powers)]), checked by one function; so
are the structure checks, (name, monomials, expected rank, stated grade),
each a SpanRow ranked once at the least prec + 2j at or above its grade, on
cuts of at most one build per run.  M_* is free over A =
Q[A_GENERATORS] = Q[E2, phi4, chi5a, phi6], Q[E2, E4, chi5a, E6] in integral
generators, on UNITS (1, chi5b, chi15, chi5b*chi15): the weight-k row is
weight_basis(k).  FIVE_GENERATORS is A and chi5b and the weight-10 rows are the
weight-10 table's columns, so only the relations form products of E4, E6, E10.
"""
from collections import namedtuple
from fractions import Fraction

from .diffop import bracket
from .dims import genfun_coeff
from .eisenstein import EisensteinParams, eisenstein_series
from .forms import FORMS, STAGES, check_prec
from .fourier import (divide_exact, linear_combine, multiply, one, rank_of_span,
                      sqrt_monic)
from .lattice import grade

Report = namedtuple("Report", "name ok mismatches")
SpanRow = namedtuple("SpanRow", "name rank expected prec ok")
StructureReport = namedtuple("StructureReport", "rows ok")

CHI5A_LEAD = (2, 0, -1)
CHI5B_LEAD = (2, 1, -1)
CHI15_UNIT_INDEX = (5, 1, -2)


def monomials(weight, generators):
    """All monomials of the given weight in the named generators, each a tuple
    of one (form id, exponent) pair per generator, highest powers first.  On
    the weight rows of weights 26-40 at grade 14, rank_of_span takes as long
    over these as over ascending ones (0.111 against 0.110 s, medians of 9)."""
    if not generators:
        return [()] if weight == 0 else []
    form, rest = generators[0], generators[1:]
    w = FORMS[form][1]
    return [((form, n),) + tail for n in range(weight // w, -1, -1)
            for tail in monomials(weight - n * w, rest)]


# The weight-8 and weight-10 tables' columns: monomials in E2, E4, E6, E10 first.
E_GENERATORS = ("E2", "E4", "E6")
E8_MONOMIALS = tuple(monomials(8, E_GENERATORS))
W10_MONOMIALS = ((("E10", 1),),) + tuple(monomials(10, E_GENERATORS))
A_GENERATORS = ("E2", "phi4", "chi5a", "phi6")
UNITS = ((), (("chi5b", 1),), (("chi15", 1),), (("chi5b", 1), ("chi15", 1)))
FIVE_GENERATORS = A_GENERATORS + ("chi5b",)

# E8 as a polynomial in E2, E4, E6: coefficients of E8_MONOMIALS.
E8_IN_LOWER = (Fraction(48860325, 18184241), Fraction(-107719950, 18184241),
               Fraction(26257000, 18184241), Fraction(387686, 138811))

# chi5a^2 and chi5b^2 as combinations of W10_MONOMIALS: E10, E2^5, E2^3*E4,
# E2^2*E6, E2*E4^2, E4*E6 (the uniqueness-up-to-sign characterization of the
# two weight-5 forms).
CHI5A_SQ_EXPANSION = (
    Fraction(31513745731, 416023384089600),
    Fraction(-126433528597, 311423218947072),
    Fraction(11304517601, 14285468759040),
    Fraction(-41742579637, 1557116094735360),
    Fraction(-38947571, 120147846816),
    Fraction(-1000259890201, 9083177219289600),
)
CHI5B_SQ_EXPANSION = (
    Fraction(31513745731, 416023384089600),
    Fraction(266799861, 1281577032704),
    Fraction(-261925781, 1587274306560),
    Fraction(-1914649869, 6407885163520),
    Fraction(935053847, 51903869824512),
    Fraction(551346719209, 3406191457233600),
)

# chi5b^2 - chi5a^2 as a quintic in E2, E4, E6 (coefficients of E2^5,
# E2^3*E4, E2^2*E6, E2*E4^2, E4*E6).
CHI5_QUINTIC = (Fraction(5005, 8149248), Fraction(-15587, 16298496),
                Fraction(-4433, 16298496), Fraction(1859, 5432832),
                Fraction(4433, 16298496))

# The tabulated 45-term expression for chi15^2 as a weight-30 polynomial in
# E2, E4, E6, chi5a: entries (coefficient, a, b, c, e) standing for
# coefficient * E2^a * E4^b * E6^c * chi5a^e.  As tabulated, the right-hand
# side equals CHI15_SQ_SCALE * chi15^2, not chi15^2 itself; dividing every
# coefficient by CHI15_SQ_SCALE gives the unique exact identity (_relations
# states both).
CHI15_SQ_TABULATED = (
    (Fraction(7193626131746618585, 222607917767232721152), 15, 0, 0, 0),
    (Fraction(-307986483294442487, 1426973831841235392), 13, 1, 0, 0),
    (Fraction(1416328854305111, 54400761917701056), 12, 0, 1, 0),
    (Fraction(4087366592607641, 6860451114621324), 11, 2, 0, 0),
    (Fraction(-192607575137275, 1394891331223104), 10, 1, 1, 0),
    (Fraction(50704311727294, 69507316593), 10, 0, 0, 2),
    (Fraction(-52003816542174887, 59873027909422464), 9, 3, 0, 0),
    (Fraction(2912260461769, 319066052303232), 9, 0, 2, 0),
    (Fraction(1922370985523, 6706208323188), 8, 2, 1, 0),
    (Fraction(-20825649443174, 5346716661), 8, 1, 0, 2),
    (Fraction(102989732952024139, 146356290445254912), 7, 4, 0, 0),
    (Fraction(-96923094941, 2727060276096), 7, 1, 2, 0),
    (Fraction(27583081580, 203833773), 7, 0, 1, 2),
    (Fraction(-92968372638167, 321897999513024), 6, 3, 1, 0),
    (Fraction(65651791909, 36815313727296), 6, 0, 3, 0),
    (Fraction(3387092572918, 411285897), 6, 2, 0, 2),
    (Fraction(-7304217732454747, 24392715074209152), 5, 5, 0, 0),
    (Fraction(30622846693, 629321602176), 5, 2, 2, 0),
    (Fraction(-256204744, 505791), 5, 1, 1, 2),
    (Fraction(-10936889634816, 19651489), 5, 0, 0, 4),
    (Fraction(14944942065833, 107299333171008), 4, 4, 1, 0),
    (Fraction(-27494911499, 6135885621216), 4, 1, 3, 0),
    (Fraction(-1176607216174, 137095299), 4, 3, 0, 2),
    (Fraction(10349644, 597753), 4, 0, 2, 2),
    (Fraction(36987323269, 710702030016), 3, 6, 0, 0),
    (Fraction(-49717185583, 1887964806528), 3, 3, 2, 0),
    (Fraction(1709446981, 8862945897312), 3, 0, 4, 0),
    (Fraction(773604236, 1206117), 3, 2, 1, 2),
    (Fraction(2503569715200, 1511653), 3, 1, 0, 4),
    (Fraction(-26102557, 1042085088), 2, 5, 1, 0),
    (Fraction(2820958987, 943982403264), 2, 2, 3, 0),
    (Fraction(509138188, 116281), 2, 4, 0, 2),
    (Fraction(-2420960, 45981), 2, 1, 2, 2),
    (Fraction(-31993344000, 57629), 2, 0, 1, 4),
    (Fraction(18421, 4583952), 1, 4, 2, 0),
    (Fraction(-159653813, 681765069024), 1, 1, 4, 0),
    (Fraction(-843440, 3069), 1, 3, 1, 2),
    (Fraction(-136400, 66417), 1, 0, 3, 2),
    (Fraction(-137631744000, 116281), 1, 2, 0, 4),
    (Fraction(-4433, 20627784), 0, 3, 3, 0),
    (Fraction(39651821, 4431472948656), 0, 0, 5, 0),
    (Fraction(-301621736, 348843), 0, 5, 0, 2),
    (Fraction(1100, 27), 0, 2, 2, 2),
    (Fraction(3018240000, 4433), 0, 1, 1, 4),
    (Fraction(40993977139200000, 19651489), 0, 0, 0, 6),
)

# The tabulated chi15^2 coefficients are uniformly this multiple of the exact ones.
CHI15_SQ_SCALE = Fraction(3621888, 4433) ** 2

# build's definitions in build order: (form, lead, [(coefficient, powers)]).
C10 = Fraction(31513745731, 416023384089600)
DEFINITIONS = (
    ("phi2", None, [(1, (("E2", 1),))]),
    ("phi4", None, [(Fraction(-13, 288), (("E4", 1),)), (Fraction(13, 288), (("E2", 2),))]),
    ("phi6", None, [(Fraction(-341, 113184), (("E6", 1),)),
                    (Fraction(341, 113184), (("E2", 3),)),
                    (Fraction(-109, 262), (("E2", 1), ("phi4", 1)))]),
    ("phi10", None, [(C10, (("E10", 1),)), (-C10, (("E2", 5),)),
                     (Fraction(52522796831, 2889051278400), (("E2", 3), ("phi4", 1))),
                     (Fraction(21884309761, 481508546400), (("E2", 2), ("phi6", 1))),
                     (Fraction(-829232949, 1671904675), (("E2", 1), ("phi4", 2))),
                     (Fraction(318067693, 1671904675), (("phi4", 1), ("phi6", 1)))]),
    ("phi8", None, [(138811, (("E8", 1),))]),
    ("chi5a", CHI5A_LEAD, [(1, (("phi10", 1),)), (-1, (("phi4", 1), ("phi6", 1)))]),
    ("chi5b", CHI5B_LEAD, [(1, (("E2", 1), ("phi4", 2))), (1, (("phi4", 1), ("phi6", 1))),
                           (1, (("phi10", 1),))]))


def _stage_forms(stage):
    """Form ids of the members of a set built up to `stage`."""
    last = STAGES.index(stage)
    return tuple(f for f, (st, _) in FORMS.items() if STAGES.index(st) <= last)


class GeneratorSet:
    """Constructed forms at one common precision, up to one stage.

    GeneratorSet.build(prec, upto) runs the stages in order from one
    Eisenstein layer at grade X = forms.check_prec(prec, upto), 2 grades
    deeper for each stage after "phi", so that every member comes out exact
    at prec:

    - "phi": Eisenstein series E2..E10 (grade prec) -> phi2..phi10;
    - "chi5": the same from grade prec+2 -> chi5a/chi5b as formal square
      roots with unit leading coefficients;
    - "chi15": the same from grade prec+4 -> the weight-20 brackets delta20a,
      delta20b (prec+2) -> chi15 as the exact quotient delta20a / chi5b,
      rescaled to have coefficient 1 at (5,1,-2).  The companion quotient
      delta20b / chi5a, normalized the same way, is computed independently
      and build raises ValueError unless it equals chi15 exactly.

    check_prec raises ValueError before any work for an unknown stage, a
    prec below the stage's floor or an X past the kernel's deepest grade.
    build fills one set at grade X a member at a time, the phi forms and
    roots from DEFINITIONS, and returns a set of its members cut to prec.
    Every set is build's, or build's members cut to a lower grade.
    Each member is the attribute named by its form id in lower case.
    """

    __slots__ = ("prec", "stage", "_products") + tuple(
        form.lower() for form in FORMS)

    @classmethod
    def build(cls, prec, upto="chi15"):
        X = check_prec(prec, upto)
        # One set at grade X, filled a member at a time, forms every product.
        deep = cls._assemble(X, upto, {})
        for k in (2, 4, 6, 8, 10):
            setattr(deep, "e%d" % k, eisenstein_series(EisensteinParams(k), X))
        for form, lead, terms in DEFINITIONS:
            if form in _stage_forms(upto):
                s = linear_combine([(c, deep.monomial(p)) for c, p in terms])
                setattr(deep, form.lower(), s if lead is None else sqrt_monic(s, lead))
        if upto == "chi15":  # chi5a, chi5b at prec + 2
            deep.delta20a = bracket(deep.e2, deep.e4, deep.chi5a, deep.e6)  # prec + 2
            deep.delta20b = bracket(deep.e2, deep.e4, deep.chi5b, deep.e6)
            q_a = divide_exact(deep.delta20a, deep.chi5b, CHI5B_LEAD)  # prec
            q_b = divide_exact(deep.delta20b, deep.chi5a, CHI5A_LEAD)
            unit_a, unit_b = q_a.coeff(CHI15_UNIT_INDEX), q_b.coeff(CHI15_UNIT_INDEX)
            if not unit_a or not unit_b:
                raise ValueError("bracket quotient vanishes at the unit index")
            deep.chi15 = linear_combine([(1 / unit_a, q_a)])
            if deep.chi15 != linear_combine([(1 / unit_b, q_b)]):
                raise ValueError("chi15 differs from its companion quotient delta20b / chi5a")
        return deep._cut(prec)

    @classmethod
    def _assemble(cls, prec, stage, forms):
        """The unchecked set of the given {form id: series}, its cache empty."""
        self = cls.__new__(cls)
        self.prec, self.stage, self._products = prec, stage, {}
        for form, s in forms.items():
            setattr(self, form.lower(), s)
        return self

    def _cut(self, prec):
        """The unchecked set of this set's members cut to prec, its cache empty."""
        return self._assemble(prec, self.stage,
                              {f: s.truncate(prec) for f, s in self.members().items()})

    def members(self):
        """{form id: series} of every member."""
        return {form: getattr(self, form.lower()) for form in _stage_forms(self.stage)}

    def monomial(self, powers):
        """The product of the members' powers for (form id, exponent) pairs, in
        any order; one(prec) when every exponent is 0.  Each product is cached
        under its sorted nonzero pairs, phi2 read as E2 (build makes them
        one series), and formed by one multiply from cached factors: a
        power from the next lower power, any other product from the
        one-generator-shorter prefix and the last generator's power.  A miss
        raises ValueError for a pair other than (member id, int >= 0)."""
        key = tuple(sorted(("E2" if f == "phi2" else f, n) for f, n in powers if n))
        mon = self._products.get(key)
        if mon is None:
            if not key:
                mon = one(self.prec)
            elif len(key) > 1:
                mon = multiply(self.monomial(key[:-1]), self.monomial(key[-1:]))
            else:
                (form, n), = key
                if form not in _stage_forms(self.stage) or type(n) is not int or n < 0:
                    raise ValueError("%r is not a power of a %s member" % (key[0], self.stage))
                mon = getattr(self, form.lower())
                if n > 1:
                    mon = multiply(self.monomial(((form, n - 1),)), mon)
            self._products[key] = mon
        return mon


def _relations():
    """The six identities as (name, lhs_scale, lhs, [(coefficient, powers)]),
    in report order; each states sum(coefficient * monomial) = lhs_scale * lhs."""
    chi15_sq = [(coeff, (("E2", a), ("E4", b), ("E6", c), ("chi5a", e)))
                for coeff, a, b, c, e in CHI15_SQ_TABULATED]
    return (
        ("chi5a_sq_expansion", 1, (("chi5a", 2),),
         list(zip(CHI5A_SQ_EXPANSION, W10_MONOMIALS))),
        ("chi5b_sq_expansion", 1, (("chi5b", 2),),
         list(zip(CHI5B_SQ_EXPANSION, W10_MONOMIALS))),
        ("e8_in_lower_generators", 1, (("E8", 1),),
         list(zip(E8_IN_LOWER, E8_MONOMIALS))),
        ("chi5_quintic", 1, (("chi5b", 2),),
         list(zip(CHI5_QUINTIC, W10_MONOMIALS[1:])) + [(1, (("chi5a", 2),))]),
        ("chi15_sq_identity", 1, (("chi15", 2),),
         [(coeff / CHI15_SQ_SCALE, powers) for coeff, powers in chi15_sq]),
        ("chi15_sq_tabulated_scale", CHI15_SQ_SCALE, (("chi15", 2),), chi15_sq),
    )


def _check_relations(gens, relations):
    """One Report per relation, its mismatches the nonzero coefficients of
    sum(terms) - lhs_scale * lhs; gens.monomial forms each monomial once."""
    reports = []
    for name, scale, lhs, terms in relations:
        residual = linear_combine([(c, gens.monomial(powers))
                                   for c, powers in [(-scale, lhs)] + terms])
        bad = list(residual.coeffs.items())
        reports.append(Report(name, not bad, bad))
    return reports


# Kept apart from verify_polynomial_relations for perfbench/tracer.py (ROADMAP item 1).
def verify_chi5_square_relations(gens):
    """Check both weight-10 expansions: chi5a^2 and chi5b^2 as explicit
    combinations of E10, E2^5, E2^3*E4, E2^2*E6, E2*E4^2, E4*E6."""
    return _check_relations(gens, _relations()[:2])


def verify_polynomial_relations(gens):
    """Check the cross-generator identities:

    - E8 as a polynomial in E2, E4, E6;
    - the quintic expressing chi5b^2 - chi5a^2 in E2, E4, E6;
    - chi15^2 as a weight-30 polynomial in E2, E4, E6, chi5a, in two forms:
      the exact identity with coefficients CHI15_SQ_TABULATED/CHI15_SQ_SCALE,
      and the statement that the as-tabulated right-hand side equals exactly
      CHI15_SQ_SCALE * chi15^2.
    """
    return _check_relations(gens, _relations()[2:])


def weight_basis(k):
    """The monomials E2^a phi4^b chi5a^c phi6^d * u of weight k, u in UNITS:
    each A-monomial of weight k - w(u) times each unit u.  The count equals
    genfun_coeff(k)."""
    return [mon + unit for unit in UNITS
            for mon in monomials(k - sum(FORMS[f][1] * n for f, n in unit),
                                 A_GENERATORS)]


def _stated_grade(weight):
    """The grade a row of this weight states: where weight_basis(k) first
    has full rank, for each k <= 40 (on cuts of build(20))."""
    return max(5, weight // 2)


def monomial_basis(weight, gens):
    """Span rank of weight_basis(weight) on gens against the generating-function
    coefficient: the SpanRow "weight %2d" of verify_structure."""
    return _span_rank("weight %2d" % weight, weight_basis(weight),
                      genfun_coeff(weight), gens)


# delta20a = {E2, E4, chi5a, E6} spans one dimension, i.e. is nonzero; its
# lowest term is chi5b's leading index plus chi15's unit index.
INDEPENDENCE = ("e2_e4_chi5a_e6_independent", ((("delta20a", 1),),), 1,
                grade(CHI5B_LEAD) + grade(CHI15_UNIT_INDEX))


def _span_checks():
    """The rows (name, monomials, expected rank, stated grade) beside the
    weight rows, in name order: the weight-10 product table's columns span 6
    dimensions and chi5a*chi5b a 7th; FIVE_GENERATORS' monomials span 12 of
    the 13 in weight 15 (chi15 the 13th) and 26 of the 28 in weight 20
    (delta20a, delta20b the last two); then INDEPENDENCE."""
    w10 = monomials(10, ("E2", "phi4", "phi6")) + [(("phi10", 1),)]
    u15, v20 = monomials(15, FIVE_GENERATORS), monomials(20, FIVE_GENERATORS)
    return (("w10_products", w10, 6, _stated_grade(10)),
            ("w10_with_chi5ab", w10 + [(("chi5a", 1), ("chi5b", 1))], 7, _stated_grade(10)),
            ("w15_five_generators", u15, 12, _stated_grade(15)),
            ("w15_with_chi15", u15 + [(("chi15", 1),)], 13, _stated_grade(15)),
            ("w20_five_generators", v20, 26, _stated_grade(20)),
            ("w20_with_deltas", v20 + [(("delta20a", 1),), (("delta20b", 1),)], 28,
             _stated_grade(20)),
            INDEPENDENCE)


def _span_rank(name, monomials, expected, gens):
    """The monomials' SpanRow: their one exact rank on gens, at gens.prec."""
    rank = rank_of_span([gens.monomial(p) for p in monomials])
    return SpanRow(name, rank, expected, gens.prec, rank == expected)


def verify_structure(k_max, gens):
    """StructureReport(rows, ok) of every structure check, in print order:
    the monomial_basis row of every weight <= k_max, then the _span_checks
    rows; ok if every row is.  Each row is ranked once, on the set at the
    least gens.prec + 2j at or above its stated grade: gens, one build at
    the deepest such grade, or that build cut to the grade, one set per
    grade.  Truncation only loses rank, so a stated grade that is too low
    gives a FAIL, never a false PASS.

    INDEPENDENCE is the algebraic independence of E2, E4, chi5a, E6: if four
    forms satisfy a polynomial relation, their bracket, a weighted Jacobian
    determinant, vanishes identically (the Jacobian criterion; Aoki and
    Ibukiyama, Internat. J. Math. 16, 2005), so one nonzero coefficient of
    delta20a proves independence.
    """
    stated = [(_stated_grade(k), monomial_basis, (k,)) for k in range(k_max + 1)] + [
        (g, _span_rank, (name, mons, expected)) for name, mons, expected, g in _span_checks()]
    grades = [gens.prec + max(0, g - gens.prec + 1) // 2 * 2 for g, _, _ in stated]
    deep = GeneratorSet.build(max(grades), gens.stage) if max(grades) > gens.prec else gens
    sets = {p: gens if p == gens.prec else deep._cut(p) for p in set(grades)}
    rows = [rank(*args, sets[p]) for p, (_, rank, args) in zip(grades, stated)]
    return StructureReport(rows, all(row.ok for row in rows))
