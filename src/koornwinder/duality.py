"""The duality apparatus: starred polynomials, pairings, and the
evaluation functional.

The coefficient involution that swaps t0 with un extends to polynomials
by inverting the variables.  In symbolic mode it is applied literally;
in specialized mode the star of a computed quantity is obtained by
recomputing it under the star-transformed assignment (the two families
are held side by side), never by transforming specialized rationals.
"""

from __future__ import annotations

from . import weyl
from .intertwine import y_exponential
from .laurent import LaurentPolynomial
from .noumi import character_value
from .polynomials import KoornwinderFamily


def star_polynomial(f):
    """Star on a symbolic-coefficient polynomial: star every coefficient
    and invert every variable."""
    ring = f.ring
    if ring.domain.mode != "symbolic":
        raise ValueError("literal star needs symbolic coefficients; "
                         "use the paired-assignment protocol instead")
    return LaurentPolynomial(
        ring, {tuple(-x for x in e): c.star() for e, c in f.num.items()}, f.den)


def dual_spectral_point(domain, mu, sign=1):
    """The dual spectral point q^(mu + rho*), componentwise
    (q^(mu_i) * (un*tn)^(1/2) * t^(n-i))^sign; mu = 0 gives the dual base
    point.  Its primal counterpart q^(mu + rho) is weyl.spectral_vector(mu)."""
    n = len(mu)
    return tuple((domain.q_pow(m) * domain.s_dual * domain.t ** (n - i)) ** sign
                 for i, m in enumerate(mu, start=1))


def _inverted(ring, poly):
    """poly with every variable inverted, as a polynomial of ring; the
    numerators and denominator do not depend on the domain."""
    return LaurentPolynomial(
        ring, {tuple(-x for x in e): c for e, c in poly.num.items()}, poly.den)


class DualityChecker:
    """Pairings between the family and its star twin.

    For symbolic coefficients the twin is the family itself (star acts on
    coefficients directly); for specialized coefficients it is the family
    built under the star-transformed assignment.
    """

    def __init__(self, family: KoornwinderFamily):
        self.family = family
        self.n = family.n
        self.symbolic = family.domain.mode == "symbolic"
        if self.symbolic:
            self.star_family = family
        else:
            self.star_family = KoornwinderFamily(
                family.n, family.domain.star_domain())
        # every starred polynomial, value and pairing computed so far
        self._memo = {}

    def _fam(self, starred):
        return self.star_family if starred else self.family

    def _cached(self, key, compute):
        """The memo entry for key, computed by compute() on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _star_poly(self, kind, label, starred=False):
        """The starred polynomial, nonsymmetric or symmetric by kind, with
        coefficients valued in the (starred ? twin : primary) domain."""
        def compute():
            if self.symbolic:
                return star_polynomial(getattr(self.family, kind)(label).poly)
            source = getattr(self._fam(not starred), kind)(label).poly
            return _inverted(self._fam(starred).ring, source)
        return self._cached(("star", kind, tuple(label), starred), compute)

    # -- pairings --------------------------------------------------------

    def _star_value(self, kind, left, right, starred):
        """The starred polynomial of left at the spectral point of right,
        q^(right + rho)."""
        return self._cached(
            ("star value", kind, tuple(left), tuple(right), starred),
            lambda: self._star_poly(kind, left, starred).evaluate(
                self._point(right, starred)))

    def _point(self, label, starred):
        """The spectral point q^(label + rho) in the (starred ? twin :
        primary) domain, shared by every value taken there."""
        dom = self._fam(starred).domain
        return self._cached(("point", tuple(label), starred),
                            lambda: weyl.spectral_vector(tuple(label), dom))

    def _pairing(self, kind, left, right, starred):
        """The starred polynomial of left at the spectral point of right,
        times the polynomial of right at the inverted dual base point;
        nonsymmetric or symmetric by kind."""
        return self._cached(
            ("pairing", kind, tuple(left), tuple(right), starred),
            lambda: (self._star_value(kind, left, right, starred)
                     * self._base_value(kind, right, starred)))

    def _base_value(self, kind, label, starred):
        """The polynomial of label at the inverted dual base point, shared
        by every pairing with label on the right."""
        fam = self._fam(starred)
        return self._cached(
            ("base", kind, tuple(label), starred),
            lambda: getattr(fam, kind)(label).poly.evaluate(
                dual_spectral_point(fam.domain, (0,) * self.n, -1)))

    def pairing_e(self, alpha, beta, starred=False):
        """E*_alpha at the spectral point of beta, times E_beta at the
        inverted dual base point."""
        return self._pairing("nonsymmetric", alpha, beta, starred)

    def pairing_p(self, lam, mu, starred=False):
        """P*_lam at q^(mu + rho), times P_mu at the inverted dual base
        point."""
        return self._pairing("symmetric", lam, mu, starred)

    # -- theorem checks ---------------------------------------------------

    def _check_duality(self, kind, left, right):
        """star(pairing(left, right)) == pairing(right, left)."""
        if self.symbolic:
            lhs = self._pairing(kind, left, right, False).star()
        else:
            lhs = self._pairing(kind, left, right, True)
        return lhs == self._pairing(kind, right, left, False)

    def check_duality_e(self, alpha, beta):
        """star(pairing_e(alpha, beta)) == pairing_e(beta, alpha)."""
        return self._check_duality("nonsymmetric", alpha, beta)

    def check_duality_p(self, lam, mu):
        """star(pairing_p(lam, mu)) == pairing_p(mu, lam)."""
        return self._check_duality("symmetric", lam, mu)

    def check_evaluation_ratio(self, lam, mu):
        """The duality ratio identity between normalized evaluations.

        P_lam(q^(mu+rho*)) / P_lam(q^(rho*)) ==
        P*_mu(q^(lam+rho)) / P*_mu(q^(rho)); a single-domain statement in
        both modes.
        """
        dom = self.family.domain
        p_lam = self.family.symmetric(lam).poly
        zero = (0,) * self.n
        lhs = (p_lam.evaluate(dual_spectral_point(dom, tuple(mu)))
               / p_lam.evaluate(dual_spectral_point(dom, zero)))
        rhs = (self._star_value("symmetric", mu, lam, False)
               / self._star_value("symmetric", mu, zero, False))
        return lhs == rhs


# ---------------------------------------------------------------------------
# the evaluation functional on normal-form monomials X^alpha T_w Y^beta

def functional_closed_form(domain, n, alpha, word, beta):
    """Closed form: q^<beta, rho> * chi(T_w) * q^-<alpha, rho*>."""
    value = character_value(word, domain, n)
    for i, b in enumerate(beta, start=1):
        value = value * (domain.s * domain.t ** (n - i)) ** b
    for i, a in enumerate(alpha, start=1):
        value = value * (domain.s_dual * domain.t ** (n - i)) ** (-a)
    return value


def functional_operator_form(rep, alpha, word, beta):
    """Operator path: apply Y^beta, T_w, X^alpha to the constant one and
    evaluate at the inverted dual base point."""
    f = y_exponential(rep, beta, 0, rep.ring.one())
    f = rep.t_word(word, f)
    f = f * rep.ring.monomial(alpha)
    return f.evaluate(dual_spectral_point(rep.domain, (0,) * rep.n, -1))


def star_pbw_triple(alpha, word, beta):
    """The normal form of the starred monomial: exponents are negated and
    swapped, the word is reversed."""
    return (tuple(-b for b in beta), tuple(reversed(word)),
            tuple(-a for a in alpha))
