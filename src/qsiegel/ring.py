"""Construction of the graded-ring generators — the Eisenstein series E2, E4,
E6 (plus E8, E10 and their phi-normalizations), the two weight-5 cusp forms
chi5a, chi5b obtained as formal square roots, and the weight-15 form chi15
obtained as an exact bracket quotient — together with mechanical verification
of the expansion tables, polynomial relations, and span dimensions they
satisfy.
"""
from collections import namedtuple
from fractions import Fraction

from .diffop import bracket
from .dims import genfun_coeff
from .eisenstein import EisensteinParams, eisenstein_series
from .fourier import (FourierSeries, divide_exact, linear_combine, multiply, one,
                      power, rank_of_span, sqrt_monic)
from .lattice import index_key

Report = namedtuple("Report", "name ok mismatches")
MonomialBasisReport = namedtuple("MonomialBasisReport",
                                 "weight exponents rank expected prec ok")
StructureReport = namedtuple("StructureReport", "rows augmentations ok")

CHI5A_LEAD = (2, 0, -1)
CHI5B_LEAD = (2, 1, -1)
CHI15_UNIT_INDEX = (5, 1, -2)

# E8 as a polynomial in E2, E4, E6: coefficients of E2^4, E2^2*E4, E2*E6, E4^2.
E8_IN_LOWER = (Fraction(48860325, 18184241), Fraction(-107719950, 18184241),
               Fraction(26257000, 18184241), Fraction(387686, 138811))

# chi5a^2 and chi5b^2 as combinations of E10, E2^5, E2^3*E4, E2^2*E6,
# E2*E4^2, E4*E6 (the uniqueness-up-to-sign characterization of the two
# weight-5 forms).
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
# coefficient by CHI15_SQ_SCALE gives the unique exact identity (see
# verify_polynomial_relations, which checks both statements).
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

# (3621888/4433)^2; the tabulated chi15^2 coefficients are uniformly this
# multiple of the exact ones.
CHI15_SQ_SCALE = Fraction(13118072684544, 19651489)


def _eisenstein_family(prec):
    return {k: eisenstein_series(EisensteinParams(k), prec) for k in (2, 4, 6, 8, 10)}


def _phi_from_eisenstein(E):
    phi2 = E[2]
    phi4 = linear_combine([(Fraction(-13, 288), E[4]),
                           (Fraction(13, 288), power(phi2, 2))])
    phi6 = linear_combine([(Fraction(-341, 113184), E[6]),
                           (Fraction(341, 113184), power(phi2, 3)),
                           (Fraction(-109, 262), multiply(phi2, phi4))])
    phi8 = linear_combine([(Fraction(138811), E[8])])
    phi10 = linear_combine([
        (Fraction(31513745731, 416023384089600),
         linear_combine([(1, E[10]), (-1, power(phi2, 5))])),
        (Fraction(52522796831, 2889051278400), multiply(power(phi2, 3), phi4)),
        (Fraction(21884309761, 481508546400), multiply(power(phi2, 2), phi6)),
        (Fraction(-829232949, 1671904675), multiply(phi2, power(phi4, 2))),
        (Fraction(318067693, 1671904675), multiply(phi4, phi6)),
    ])
    return phi2, phi4, phi6, phi8, phi10


def build_phi_forms(prec):
    """The renormalized generators phi2, phi4, phi6, phi8, phi10 at the given
    precision."""
    if prec < 4:
        raise ValueError("need prec >= 4")
    return _phi_from_eisenstein(_eisenstein_family(prec))


def _chi5_squares(phi2, phi4, phi6, phi10):
    sq_a = linear_combine([(1, phi10), (-1, multiply(phi4, phi6))])
    sq_b = linear_combine([(1, multiply(phi2, power(phi4, 2))),
                           (1, multiply(phi4, phi6)), (1, phi10)])
    return sq_a, sq_b


def build_chi5(prec):
    """The two weight-5 cusp forms at the given precision, as the formal
    square roots of phi10 - phi4*phi6 and phi2*phi4^2 + phi4*phi6 + phi10
    with unit leading coefficients at (2,0,-1) and (2,1,-1)."""
    phi2, phi4, phi6, _, phi10 = build_phi_forms(prec + 2)
    sq_a, sq_b = _chi5_squares(phi2, phi4, phi6, phi10)
    chi5a = sqrt_monic(sq_a, CHI5A_LEAD, 1)
    chi5b = sqrt_monic(sq_b, CHI5B_LEAD, 1)
    return chi5a, chi5b


class GeneratorSet:
    """All constructed forms at one common precision.

    Build order: Eisenstein series (grade prec+4) -> phi forms -> chi5a/chi5b
    as formal square roots (prec+2) -> the weight-20 brackets delta20a,
    delta20b (prec+2) -> chi15 as the exact quotient delta20a / chi5b,
    rescaled to have coefficient 1 at (5,1,-2) (prec).  Everything is then
    truncated to the common precision.

    chi15_companion is the independently normalized quotient
    delta20b / chi5a; build raises ValueError unless it equals chi15 exactly.
    """

    __slots__ = ("prec", "e2", "e4", "e6", "e8", "e10",
                 "phi2", "phi4", "phi6", "phi8", "phi10",
                 "chi5a", "chi5b", "chi15", "chi15_companion",
                 "delta20a", "delta20b", "_pow_cache", "_deeper")

    @classmethod
    def build(cls, prec):
        if prec < 5:
            raise ValueError("need prec >= 5 (below that chi15 has no rows)")
        self = cls.__new__(cls)
        self.prec = prec
        E = _eisenstein_family(prec + 4)
        phis = _phi_from_eisenstein(E)
        phi2, phi4, phi6, phi8, phi10 = phis
        sq_a, sq_b = _chi5_squares(phi2, phi4, phi6, phi10)
        chi5a = sqrt_monic(sq_a, CHI5A_LEAD, 1)   # prec + 2
        chi5b = sqrt_monic(sq_b, CHI5B_LEAD, 1)
        e2t = E[2].truncate(prec + 2)
        e4t = E[4].truncate(prec + 2)
        e6t = E[6].truncate(prec + 2)
        delta20a = bracket(e2t, e4t, chi5a, e6t)  # prec + 2
        delta20b = bracket(e2t, e4t, chi5b, e6t)
        q_a = divide_exact(delta20a, chi5b, CHI5B_LEAD)  # prec
        q_b = divide_exact(delta20b, chi5a, CHI5A_LEAD)
        unit_a = q_a.coeff(CHI15_UNIT_INDEX)
        unit_b = q_b.coeff(CHI15_UNIT_INDEX)
        if not unit_a or not unit_b:
            raise ValueError("bracket quotient vanishes at the unit index")
        self.chi15 = linear_combine([(1 / unit_a, q_a)])
        self.chi15_companion = linear_combine([(1 / unit_b, q_b)])
        if self.chi15 != self.chi15_companion:
            raise ValueError("chi15 differs from its companion quotient "
                             "delta20b / chi5a")
        self.e2, self.e4, self.e6 = (E[k].truncate(prec) for k in (2, 4, 6))
        self.e8, self.e10 = E[8].truncate(prec), E[10].truncate(prec)
        self.phi2, self.phi4, self.phi6, self.phi8, self.phi10 = (
            s.truncate(prec) for s in phis)
        self.chi5a, self.chi5b = chi5a.truncate(prec), chi5b.truncate(prec)
        self.delta20a, self.delta20b = delta20a.truncate(prec), delta20b.truncate(prec)
        self._pow_cache = {}
        self._deeper = None
        return self

    def deeper(self):
        """The generator set two grades deeper, built at most once per set, so
        a chain of escalations builds each precision once."""
        if self._deeper is None:
            self._deeper = GeneratorSet.build(self.prec + 2)
        return self._deeper

    def as_dict(self):
        return {"E2": self.e2, "E4": self.e4, "E6": self.e6, "E8": self.e8,
                "E10": self.e10, "phi2": self.phi2, "phi4": self.phi4,
                "phi6": self.phi6, "phi8": self.phi8, "phi10": self.phi10,
                "chi5a": self.chi5a, "chi5b": self.chi5b, "chi15": self.chi15,
                "delta20a": self.delta20a, "delta20b": self.delta20b}

    def gen_power(self, name, n):
        """Cached n-th power of a named generator at the common precision."""
        if n == 0:
            return one(self.prec)
        key = (name, n)
        if key not in self._pow_cache:
            base = getattr(self, name)
            self._pow_cache[key] = (base if n == 1
                                    else multiply(self.gen_power(name, n - 1), base))
        return self._pow_cache[key]

    def monomial(self, expo):
        """E2^a E4^b chi5a^c E6^d chi5b^eps chi15^delta for the exponent tuple
        (a, b, c, d, eps, delta)."""
        a, b, c, d, eps, delta = expo
        mon = self.gen_power("e2", a)
        for name, n in (("e4", b), ("chi5a", c), ("e6", d),
                        ("chi5b", eps), ("chi15", delta)):
            if n:
                mon = multiply(mon, self.gen_power(name, n))
        return mon


def build_chi15(prec):
    """chi15 alone, at the given precision (builds the full pipeline)."""
    return GeneratorSet.build(prec).chi15


def _relation_mismatches(lhs, terms):
    """Indices where lhs differs from sum(scalar * series)."""
    residual = linear_combine([(Fraction(-1), lhs)] + list(terms))
    return sorted(residual.coeffs.items(), key=lambda kv: index_key(kv[0]))


def _chi5_sq_monomials(gens):
    e2_5 = gens.gen_power("e2", 5)
    e2_3e4 = multiply(gens.gen_power("e2", 3), gens.e4)
    e2_2e6 = multiply(gens.gen_power("e2", 2), gens.e6)
    e2e4_2 = multiply(gens.e2, gens.gen_power("e4", 2))
    e4e6 = multiply(gens.e4, gens.e6)
    return (gens.e10, e2_5, e2_3e4, e2_2e6, e2e4_2, e4e6)


def verify_chi5_square_relations(gens):
    """Check both weight-10 expansions: chi5a^2 and chi5b^2 as explicit
    combinations of E10, E2^5, E2^3*E4, E2^2*E6, E2*E4^2, E4*E6."""
    mons = _chi5_sq_monomials(gens)
    reports = []
    for name, chi, coeffs in (("chi5a_sq_expansion", gens.chi5a, CHI5A_SQ_EXPANSION),
                              ("chi5b_sq_expansion", gens.chi5b, CHI5B_SQ_EXPANSION)):
        bad = _relation_mismatches(multiply(chi, chi), list(zip(coeffs, mons)))
        reports.append(Report(name, not bad, bad))
    return reports


def verify_polynomial_relations(gens):
    """Check the cross-generator identities:

    - E8 as a polynomial in E2, E4, E6;
    - the quintic expressing chi5b^2 - chi5a^2 in E2, E4, E6;
    - chi15^2 as a weight-30 polynomial in E2, E4, E6, chi5a, in two forms:
      the exact identity with coefficients CHI15_SQ_TABULATED/CHI15_SQ_SCALE,
      and the statement that the as-tabulated right-hand side equals exactly
      CHI15_SQ_SCALE * chi15^2.
    """
    reports = []

    e8_terms = list(zip(E8_IN_LOWER, (gens.gen_power("e2", 4),
                                      multiply(gens.gen_power("e2", 2), gens.e4),
                                      multiply(gens.e2, gens.e6),
                                      gens.gen_power("e4", 2))))
    bad = _relation_mismatches(gens.e8, e8_terms)
    reports.append(Report("e8_in_lower_generators", not bad, bad))

    mons = _chi5_sq_monomials(gens)[1:]  # E2^5 .. E4*E6
    quintic_terms = list(zip(CHI5_QUINTIC, mons))
    quintic_terms.append((Fraction(1), multiply(gens.chi5a, gens.chi5a)))
    bad = _relation_mismatches(multiply(gens.chi5b, gens.chi5b), quintic_terms)
    reports.append(Report("chi5_quintic", not bad, bad))

    chi15_sq = multiply(gens.chi15, gens.chi15)
    table_terms = []
    for coeff, a, b, c, e in CHI15_SQ_TABULATED:
        mon = gens.gen_power("e2", a)
        for name, n in (("e4", b), ("e6", c), ("chi5a", e)):
            if n:
                mon = multiply(mon, gens.gen_power(name, n))
        table_terms.append((coeff, mon))
    exact_terms = [(coeff / CHI15_SQ_SCALE, mon) for coeff, mon in table_terms]
    bad = _relation_mismatches(chi15_sq, exact_terms)
    reports.append(Report("chi15_sq_identity", not bad, bad))
    scaled = linear_combine([(CHI15_SQ_SCALE, chi15_sq)])
    bad = _relation_mismatches(scaled, table_terms)
    reports.append(Report("chi15_sq_tabulated_scale", not bad, bad))
    return reports


def monomial_exponents(weight):
    """All (a, b, c, d, eps, delta) with 2a+4b+5c+6d+5*eps+15*delta = weight
    and eps, delta in {0, 1}: exponents of E2, E4, chi5a, E6, chi5b, chi15.
    The count equals genfun_coeff(weight)."""
    out = []
    for delta in (0, 1):
        for eps in (0, 1):
            w = weight - 5 * eps - 15 * delta
            if w < 0:
                continue
            for c in range(w // 5 + 1):
                for b in range((w - 5 * c) // 4 + 1):
                    for d in range((w - 5 * c - 4 * b) // 6 + 1):
                        rem = w - 5 * c - 4 * b - 6 * d
                        if rem % 2 == 0:
                            out.append((rem // 2, b, c, d, eps, delta))
    return out


def five_generator_exponents(weight):
    """All (a, b, c, d, e) with 2a+4b+5c+5d+6e = weight: exponents of
    E2, E4, chi5a, chi5b, E6 without any chi15 factor."""
    out = []
    for a in range(weight // 2 + 1):
        for b in range((weight - 2 * a) // 4 + 1):
            for c in range((weight - 2 * a - 4 * b) // 5 + 1):
                for d in range((weight - 2 * a - 4 * b - 5 * c) // 5 + 1):
                    rem = weight - 2 * a - 4 * b - 5 * c - 5 * d
                    if rem >= 0 and rem % 6 == 0:
                        out.append((a, b, c, d, rem // 6))
    return out


def _five_generator_monomial(gens, expo):
    a, b, c, d, e = expo
    mon = gens.gen_power("e2", a)
    for name, n in (("e4", b), ("chi5a", c), ("chi5b", d), ("e6", e)):
        if n:
            mon = multiply(mon, gens.gen_power(name, n))
    return mon


def monomial_basis(weight, gens, max_escalations=2):
    """Span rank of all weight-homogeneous monomials in the six generators,
    compared with the generating-function coefficient.

    Truncation can only lose rank, never create it, so a computed rank equal
    to the expected dimension is conclusive.  If the rank falls short, the
    generators are rebuilt 2 grades deeper (at most max_escalations times, or
    until the rank stops moving) before reporting.
    """
    expos = monomial_exponents(weight)
    expected = genfun_coeff(weight)
    rank = rank_of_span([gens.monomial(t) for t in expos])
    prec = gens.prec
    while rank < expected and max_escalations > 0:
        deeper = gens.deeper()
        new_rank = rank_of_span([deeper.monomial(t) for t in expos])
        if new_rank == rank:
            break
        rank, prec, gens = new_rank, deeper.prec, deeper
        max_escalations -= 1
    return MonomialBasisReport(weight, expos, rank, expected, prec, rank == expected)


def _augmentations(gens):
    """name -> (rank, expected rank) of the span augmentation checks."""
    v10 = [gens.gen_power("e2", 5),
           multiply(gens.gen_power("e2", 3), gens.e4),
           multiply(gens.gen_power("e2", 2), gens.e6),
           multiply(gens.e2, gens.gen_power("e4", 2)),
           multiply(gens.e4, gens.e6), gens.e10]
    aug = {"w10_products": (rank_of_span(v10), 6)}
    aug["w10_with_chi5ab"] = (
        rank_of_span(v10 + [multiply(gens.chi5a, gens.chi5b)]), 7)

    u15 = [_five_generator_monomial(gens, t) for t in five_generator_exponents(15)]
    aug["w15_five_generators"] = (rank_of_span(u15), 12)
    aug["w15_with_chi15"] = (rank_of_span(u15 + [gens.chi15]), 13)

    v20 = [_five_generator_monomial(gens, t) for t in five_generator_exponents(20)]
    aug["w20_five_generators"] = (rank_of_span(v20), 26)
    aug["w20_with_deltas"] = (
        rank_of_span(v20 + [gens.delta20a, gens.delta20b]), 28)
    return aug


def verify_structure(k_max, gens):
    """monomial_basis comparison for every weight <= k_max, plus the span
    augmentation facts: the weight-10 products of E2, E4, E6, E10 span 6
    dimensions and chi5a*chi5b a 7th; the five-generator monomials span 12 of
    the 13 dimensions in weight 15 (chi15 the 13th) and 26 of the 28 in
    weight 20 (delta20a, delta20b the last two).

    Augmentation ranks that fall short escalate like monomial_basis: along
    the same gens.deeper() chain, at most twice, until no short rank moves.
    """
    rows = [monomial_basis(k, gens) for k in range(k_max + 1)]
    aug = _augmentations(gens)
    for _ in range(2):
        short = [name for name, (got, want) in aug.items() if got < want]
        if not short:
            break
        gens = gens.deeper()
        deeper = _augmentations(gens)
        moved = {name: deeper[name] for name in short if deeper[name][0] > aug[name][0]}
        if not moved:
            break
        aug.update(moved)
    ok = all(r.ok for r in rows) and all(got == want for got, want in aug.values())
    return StructureReport(rows, aug, ok)
