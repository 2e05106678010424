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
        ring, {tuple(-x for x in e): c.star() for e, c in f.terms.items()})


def rho_star_point(domain, n, sign=1):
    """The dual spectral base point, componentwise ((un*tn)^(1/2) t^(n-i))^sign."""
    out = []
    for i in range(1, n + 1):
        base = domain.s_dual * domain.t ** (n - i)
        out.append(base if sign > 0 else base ** (-1))
    return tuple(out)


def rho_point(domain, n, sign=1):
    """The spectral base point, componentwise ((t0*tn)^(1/2) t^(n-i))^sign."""
    out = []
    for i in range(1, n + 1):
        base = domain.s * domain.t ** (n - i)
        out.append(base if sign > 0 else base ** (-1))
    return tuple(out)


def shifted_rho_point(domain, mu):
    """q^(mu + rho): components q^(mu_i) * s * t^(n-i)."""
    n = len(mu)
    return tuple(domain.q_pow(mu[i - 1]) * domain.s * domain.t ** (n - i)
                 for i in range(1, n + 1))


def shifted_rho_star_point(domain, mu):
    """q^(mu + rho*): components q^(mu_i) * (un*tn)^(1/2) * t^(n-i)."""
    n = len(mu)
    return tuple(domain.q_pow(mu[i - 1]) * domain.s_dual * domain.t ** (n - i)
                 for i in range(1, n + 1))


def _inverted(poly):
    return LaurentPolynomial(
        poly.ring, {tuple(-x for x in e): c for e, c in poly.terms.items()})


class DualityChecker:
    """Pairings between the family and its star twin.

    For symbolic coefficients the twin is the family itself (star acts on
    coefficients directly); for specialized coefficients pass the family
    built under the star-transformed assignment.
    """

    def __init__(self, family: KoornwinderFamily, star_family=None):
        self.family = family
        self.n = family.n
        self.symbolic = family.domain.mode == "symbolic"
        if self.symbolic:
            self.star_family = family
        else:
            if star_family is None:
                star_family = KoornwinderFamily(
                    family.n, family.domain.star_domain())
            if star_family.domain.assignment != family.domain.assignment.star():
                raise ValueError("star family must use the star-transformed "
                                 "assignment")
            self.star_family = star_family
        self._star_polys = {}
        self._pairings = {}

    def _fam(self, starred):
        return self.star_family if starred else self.family

    def _star_poly(self, kind, label, starred=False):
        """The starred polynomial, nonsymmetric or symmetric by kind, with
        coefficients valued in the (starred ? twin : primary) domain."""
        key = (kind, tuple(label), starred)
        cached = self._star_polys.get(key)
        if cached is not None:
            return cached
        if self.symbolic:
            out = star_polynomial(getattr(self.family, kind)(label).poly)
        else:
            source = getattr(self._fam(not starred), kind)(label).poly
            out = _inverted(self._fam(starred).ring.from_terms(source.terms))
        self._star_polys[key] = out
        return out

    # -- pairings --------------------------------------------------------

    def pairing_e(self, alpha, beta, starred=False):
        """E*_alpha at the spectral point of beta, times E_beta at the
        inverted dual base point."""
        key = ("e", tuple(alpha), tuple(beta), starred)
        cached = self._pairings.get(key)
        if cached is not None:
            return cached
        fam = self._fam(starred)
        dom = fam.domain
        left = self._star_poly("nonsymmetric", alpha, starred).evaluate(
            weyl.spectral_vector(tuple(beta), dom))
        right = fam.nonsymmetric(beta).poly.evaluate(
            rho_star_point(dom, self.n, -1))
        value = left * right
        self._pairings[key] = value
        return value

    def pairing_p(self, lam, mu, starred=False):
        key = ("p", tuple(lam), tuple(mu), starred)
        cached = self._pairings.get(key)
        if cached is not None:
            return cached
        fam = self._fam(starred)
        dom = fam.domain
        left = self._star_poly("symmetric", lam, starred).evaluate(
            shifted_rho_point(dom, tuple(mu)))
        right = fam.symmetric(mu).poly.evaluate(
            rho_star_point(dom, self.n, -1))
        value = left * right
        self._pairings[key] = value
        return value

    # -- theorem checks ---------------------------------------------------

    def check_duality_e(self, alpha, beta):
        """star(pairing(alpha, beta)) == pairing(beta, alpha)."""
        if self.symbolic:
            lhs = self.family.domain.star_scalar(self.pairing_e(alpha, beta))
        else:
            lhs = self.pairing_e(alpha, beta, starred=True)
        return lhs == self.pairing_e(beta, alpha)

    def check_duality_p(self, lam, mu):
        if self.symbolic:
            lhs = self.family.domain.star_scalar(self.pairing_p(lam, mu))
        else:
            lhs = self.pairing_p(lam, mu, starred=True)
        return lhs == self.pairing_p(mu, lam)

    def check_evaluation_ratio(self, lam, mu):
        """The duality ratio identity between normalized evaluations.

        P_lam(q^(mu+rho*)) / P_lam(q^(rho*)) ==
        P*_mu(q^(lam+rho)) / P*_mu(q^(rho)); a single-domain statement in
        both modes.
        """
        dom = self.family.domain
        p_lam = self.family.symmetric(lam).poly
        p_mu_star = self._star_poly("symmetric", mu)
        lhs = (p_lam.evaluate(shifted_rho_star_point(dom, tuple(mu)))
               / p_lam.evaluate(rho_star_point(dom, self.n)))
        rhs = (p_mu_star.evaluate(shifted_rho_point(dom, tuple(lam)))
               / p_mu_star.evaluate(rho_point(dom, self.n)))
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
    return f.evaluate(rho_star_point(rep.domain, rep.n, -1))


def star_pbw_triple(alpha, word, beta):
    """The normal form of the starred monomial: exponents are negated and
    swapped, the word is reversed."""
    return (tuple(-b for b in beta), tuple(reversed(word)),
            tuple(-a for a in alpha))
