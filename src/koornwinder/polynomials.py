"""Construction of the nonsymmetric and symmetric Koornwinder polynomials.

The nonsymmetric polynomial attached to a lattice point is built by
applying intertwiners along a generator chain from the origin and then
normalizing the coefficient at its own label to one.  Every chain
state is a joint Y-eigenvector with a known spectrum, so each step
applies the intertwiner in its spectral form, one T plus a scalar
multiple of the state; nonsymmetric_via_chain keeps the literal
commutator.  The symmetric one at a partition is the symmetrizer image
of the raw chain state there, normalized the same way.
Raw chain states are cached by the lattice point reached (they are well
defined up to a scalar, which the final normalization removes), so
chains to nearby points share work.  They are built over the domain's
raw domain: in symbolic mode the Laurent polynomials in the six square
roots, where no gcd ever runs; a field is needed only to normalize.
In symbolic mode the normalizing coefficient is a unit times the
product of the chain's step scalars, binomials whose irreducible
factors chain_factors lists.  Dividing by them in turn puts each
coefficient in lowest terms with no gcd, and the same factors certify,
in verify_spectrum, that the output is the chain state's monic
multiple; labels whose factors are not all binomials take the gcd.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from . import weyl
from .intertwine import apply_intertwiner, leading_scalar, spectral_intertwiner
from .laurent import (ExactDivisionError, LaurentRing, LaurentPolynomial,
                      _divide_lines, _line_terms, _lines)
from .noumi import NoumiRepresentation, monomial_exponents
from .oracle import EigenOracle, matrix_rank
from .paramfield import _mul, _strip_monomial


class NonGenericParametersError(ArithmeticError):
    """A normalizing coefficient vanished under the chosen assignment."""


# ---------------------------------------------------------------------------
# the factors of a chain's coefficient at its label (symbolic mode)

def chain_factors(alpha, domain):
    """Irreducible factors whose product is, up to a unit, the chain
    state's coefficient at x^alpha; or None.  domain is the raw domain
    LaurentScalarDomain, and a factor (v, c) stands for 1 + c r^v, r the
    six square roots, c = +-1 and the first nonzero entry of v positive.

    They come from the leading_scalar of each step of weyl.chain_to
    (alpha).  A step scalar must be m (1 - sigma r^d), with m a unit and
    sigma = +-1: two terms with coefficients +-1.  Let g be the gcd of
    the entries of d and w = d / g, or -d / g, whichever has its first
    nonzero entry positive.  A unimodular change of variables makes
    z = r^w one of them, so 1 - sigma z^g factors over Z as in one
    variable.  It is a product of binomials exactly when g is a power
    of two: 1 + z^g for sigma = -1, and (1 - z)(1 + z)(1 + z^2)..
    (1 + z^(g/2)) for sigma = 1, the cyclotomic polynomials Phi_1(z),
    Phi_2(z), Phi_4(z), .., each irreducible.  Any other step, such as
    one with g = 3 or 6, whose 1 - z^g has the trinomial Phi_3(z),
    gives None.
    """
    n = len(alpha)
    point = (0,) * n
    out = []
    for i in weyl.chain_to(alpha):
        spec = weyl.spectral_vector(point, domain)
        split = _binomial_factors(leading_scalar(domain, n, i, spec).terms)
        if split is None:
            return None
        out += split
        point = weyl.affine_action(i, point)
    return out


def _binomial_factors(terms):
    """The factors of chain_factors for one step scalar, or None."""
    if len(terms) != 2 or any(c not in (1, -1) for c in terms.values()):
        return None
    (e1, c1), (e2, c2) = terms.items()
    # c1 r^e1 + c2 r^e2 = c1 r^e1 (1 - sigma r^d)
    d = tuple(map(operator.sub, e2, e1))
    g = math.gcd(*d)
    if g & (g - 1):
        return None
    w = tuple(x // g for x in d)
    if next(x for x in w if x) < 0:
        w = tuple(-x for x in w)
    if c1 == c2:                        # sigma = -1
        return [(tuple(g * x for x in w), 1)]
    out = [(w, -1)]
    k = 1
    while k < g:
        out.append((tuple(k * x for x in w), 1))
        k *= 2
    return out


def _product(factors):
    """The term dict of the product of the factors (v, c) of
    chain_factors, each 1 + c r^v."""
    return functools.reduce(_mul, ({(0,) * 6: 1, v: c} for v, c in factors),
                            {(0,) * 6: 1})


def _unit(a, b):
    """The monomial u with u * b == a, for term dicts a and b, or None."""
    top, low = max(a), max(b)
    u, r = divmod(a[top], b[low])
    unit = {tuple(map(operator.sub, top, low)): u}
    return unit if not r and _mul(unit, b) == a else None


def _divide_out(num, groups):
    """The term dict num divided by each factor that divides it, in
    turn, and the list of the factors that did not.  groups maps v to
    the signs c of the factors (v, c); the factors along one v share one
    split of num into lines (laurent._lines), and 1 + c r^v is c z + 1
    on them, z = r^v."""
    rest = []
    for v, signs in groups.items():
        lines, divided = _lines(num, v), False
        for c in signs:
            q = _divide_lines(lines, None if c == 1 else operator.neg, -1)
            if q is None:
                rest.append((v, c))
            else:
                lines, divided = q, True
        if divided:
            num = _line_terms(lines, v)
    return num, rest


def _by_direction(factors):
    """The factors (v, c) as a dict from v to the list of their c."""
    groups = {}
    for v, c in factors:
        groups.setdefault(v, []).append(c)
    return groups


def _trial_cofactors(factors, lead):
    """The cofactors, for paramfield._normalize, of a chain's coefficients
    over the coefficient lead at its label, or None (the gcd then runs).

    None unless factors is a list and lead, a term dict, is exactly a
    monomial times their product.  Each den that _normalize then passes
    is a monomial times lead (see KoornwinderFamily.nonsymmetric), so a
    monomial times the product.  The cofactors divide num by each factor
    that divides it, in turn, and den becomes that monomial times the
    factors that did not divide num at their turn.  These do not divide
    what is left of num, and they are irreducible, so the two are
    coprime.  Each factor is primitive, so the quotient keeps num's
    content, and den's content is the monomial's, whose common part with
    num's _normalize has stripped; the common monomial is stripped last.
    """
    if factors is None:
        return None
    product = _product(factors)
    if _unit(lead, product) is None:
        return None
    groups = _by_direction(factors)

    def cofactors(num, den):
        unit = _unit(den, product)
        if unit is None:
            raise ExactDivisionError("denominator is no multiple of the lead")
        num, rest = _divide_out(num, groups)
        return _strip_monomial(num, _mul(unit, _product(rest)))
    return cofactors


def _certified(c, factors, lead, value):
    """Whether c * lead == value, for a field element c and term dicts
    lead and value, holds by a certificate from factors: G, the product
    of the factors that do not divide c.den (tried in turn), and a
    monomial u with c.den G u == lead and c.num G u == value.  Both
    identities are exact, and G u is nonzero, so together they give
    c * lead = c.num G u = value.  False says only that this
    certificate failed."""
    _, rest = _divide_out(c.den, _by_direction(factors))
    product = _product(rest)
    unit = _unit(lead, _mul(c.den, product))
    return (unit is not None
            and _mul(unit, _mul(c.num, product)) == value)


@dataclass
class LabeledPolynomial:
    """A constructed polynomial with its label and Y-spectrum."""

    label: tuple
    poly: LaurentPolynomial
    spectrum: tuple

    def to_json(self):
        enc = self.poly.ring.domain.encode_scalar
        out = self.poly.to_json()
        out["label"] = list(self.label)
        out["spectrum"] = [enc(v) for v in self.spectrum]
        return out


class KoornwinderFamily:
    """Engine computing the polynomial family for one rank and domain."""

    def __init__(self, n, domain, cache_dir=None):
        self.n = n
        self.domain = domain
        self.ring = LaurentRing(n, domain)
        self.rep = NoumiRepresentation(self.ring)
        raw = domain.raw_domain
        # the operators that build and check chain states
        self.raw_rep = (self.rep if raw is domain
                        else NoumiRepresentation(LaurentRing(n, raw)))
        self.cache_dir = cache_dir
        self._raw = {}            # lattice point -> unnormalized chain state
        self._nonsymmetric = {}
        self._symmetric = {}
        self._oracles = {}

    # -- nonsymmetric family ------------------------------------------------

    def _label(self, alpha):
        """alpha as a tuple of ints, one per variable."""
        alpha = tuple(map(operator.index, alpha))
        if len(alpha) != self.n:
            raise ValueError("label has wrong length")
        return alpha

    def nonsymmetric(self, alpha):
        """The monic joint Y-eigenvector labeled by alpha.

        The raw chain state times the inverse of its coefficient lead at
        x^alpha.  In symbolic mode each coefficient c is the field
        product c * lead^-1, whose den is a unit times lead.  Where
        paramfield._normalize would reduce it by the gcd, it runs the
        cofactors of _trial_cofactors instead, provided lead is a
        monomial times the product of chain_factors(alpha), checked once
        by one exact product.  They leave num and den coprime, with no
        common monomial or content, and _normalize then fixes the sign.
        Z[r] is a unique factorization domain, so such a (num, den) is
        unique up to sign, and it is the canonical form that the gcd
        gives, byte for byte.  Everywhere else, and for every
        coefficient of a label whose check fails or whose chain_factors
        is None, the product is the same as before: the gcd runs where
        it would.
        """
        alpha = self._label(alpha)
        cached = self._nonsymmetric.get(alpha)
        if cached is not None:
            return cached
        disk = self._disk_read(alpha)
        if disk is not None:
            self._nonsymmetric[alpha] = disk
            return disk
        raw, lead = self._generic_state(alpha)
        if self.raw_rep is self.rep:
            poly = raw * lead ** (-1)
        else:
            from_raw = self.domain.from_raw
            inverse = from_raw(lead) ** (-1)
            cofactors = _trial_cofactors(
                chain_factors(alpha, self.raw_rep.domain), lead.terms)
            poly = LaurentPolynomial(
                self.ring, {e: from_raw(c).times(inverse, cofactors)
                            for e, c in raw.num.items()})
        labeled = LabeledPolynomial(
            label=alpha, poly=poly,
            spectrum=weyl.spectral_vector(alpha, self.domain))
        self._nonsymmetric[alpha] = labeled
        self._disk_write(labeled)
        return labeled

    def _generic_state(self, alpha):
        """The chain state of alpha and its coefficient at x^alpha, which
        is zero only if the chain degenerated at these parameters."""
        raw = self._chain_state(alpha)
        lead = raw.coefficient(alpha)
        if not lead:
            raise NonGenericParametersError(
                "chain output has no x^%r term; parameters are not generic"
                % (alpha,))
        return raw, lead

    def _chain_state(self, alpha):
        # chain_to(s_i alpha) is chain_to(alpha) minus its last letter
        # i = chain_step(alpha): walk back to the origin or a cached point
        path = []
        while any(alpha) and alpha not in self._raw:
            i = weyl.chain_step(alpha)
            path.append((i, alpha))
            alpha = weyl.affine_action(i, alpha)
        rep = self.raw_rep
        f = self._raw[alpha] if any(alpha) else rep.ring.one()
        # each state is a joint Y-eigenvector for its point, so the step
        # from the predecessor alpha costs one T (spectral_intertwiner)
        for i, point in reversed(path):
            spec = weyl.spectral_vector(alpha, rep.domain)
            f = self._raw[point] = spectral_intertwiner(rep, i, spec, f)
            alpha = point
        return f

    def _to_field(self, raw):
        """A polynomial over the raw domain, over self.ring."""
        if raw.ring is self.ring:
            return raw
        convert = self.domain.from_raw
        return LaurentPolynomial(
            self.ring, {e: convert(c) for e, c in raw.num.items()}, raw.den)

    def raw_eigenvector(self, alpha):
        """The unnormalized chain output: a nonzero scalar multiple of the
        nonsymmetric polynomial.  Its coefficients are much smaller than
        the normalized ones in symbolic mode, so eigenspace checks that
        are scalar-multiple invariant should prefer it."""
        return self._to_field(self._chain_state(self._label(alpha)))

    def nonsymmetric_via_chain(self, word, alpha):
        """Chain-independence hook: build the polynomial along an explicit
        word (application order), bypassing every cache, with each step
        the literal commutator (the reference for the spectral steps)."""
        alpha = tuple(alpha)
        f = self.ring.one()
        for i in word:
            f = apply_intertwiner(self.rep, i, f)
        lead = f.coefficient(alpha)
        if not lead:
            raise NonGenericParametersError("chain output misses its label")
        return f * lead ** (-1)

    def verify_spectrum(self, labeled):
        """The defining property: Y_i scales the polynomial by the i-th
        spectral component, for every i.  The chain's spectral steps
        assume that each state is such an eigenvector; this check proves
        it for the output.

        The eigen equations are invariant under scalar multiples, so they
        are checked on the raw chain state, over the raw domain; the
        labeled polynomial is then confirmed to be its monic multiple:
        c * lead == r at every exponent, with c, r the labeled and raw
        coefficients and lead the raw one at x^alpha, and the same
        support.  It is decided on the stored numerators: with
        c = c_n / d_L over the labeled denominator and lead = l_n / d_R,
        r = r_n / d_R over the raw one, c * lead == r exactly when
        c_n * l_n == r_n * d_L (d_L is 1 in symbolic mode).
        domain.product_equals decides each equation without normalizing
        a product.  In symbolic mode each equation is first tried by
        _certified with the chain's factors: a polynomial G, a product
        of nonzero binomials, and a monomial u with c.den G u == lead
        and c.num G u == r d_L.  These two exact identities give
        c * lead == r d_L, whatever the factors are, so a certificate
        proves the equation; one that fails proves nothing, and the
        equation goes to product_equals, so the shortcut never rejects
        a true equation.  For nonsymmetric's output G is lead over
        c.den, up to a unit, and it is built by multiplying binomials
        in, which is much cheaper than the cross multiplication.
        """
        alpha = labeled.label
        spec = weyl.spectral_vector(alpha, self.raw_rep.domain)
        from_raw = self.domain.from_raw
        if tuple(labeled.spectrum) != tuple(map(from_raw, spec)):
            return False
        raw = self._chain_state(alpha)
        for i in range(1, self.n + 1):
            if self.raw_rep.y(i, raw) != raw * spec[i - 1]:
                return False
        lead = raw.num.get(alpha)
        poly = labeled.poly
        if lead is None or poly.num.keys() != raw.num.keys():
            return False
        den, raw_num, same = poly.den, raw.num, self.domain.product_equals
        if self.raw_rep is self.rep:
            return all(same(c, lead, raw_num[e] * den)
                       for e, c in poly.num.items())
        factors = chain_factors(alpha, self.raw_rep.domain) or ()
        field_lead = from_raw(lead)
        return all(_certified(c, factors, lead.terms, (raw_num[e] * den).terms)
                   or same(c, field_lead, from_raw(raw_num[e] * den))
                   for e, c in poly.num.items())

    # -- symmetric family ----------------------------------------------------

    def symmetric(self, lam):
        """The monic symmetric eigenpolynomial of a partition: the
        normalized symmetrizer image of the raw chain state, a nonzero
        multiple of E_lam with smaller coefficients.

        Verified on construction by NoumiRepresentation.d_eigen_holds: it
        raises ValueError unless P is invariant under the finite
        generators s_1..s_n, then decides Koornwinder's eigenvalue
        equation D P = E(lam) P exactly at finitely many integer points;
        its docstring proves that those points suffice.
        """
        lam = self._label(lam)
        if not weyl.is_partition(lam):
            raise ValueError("expected a weakly decreasing nonnegative label")
        cached = self._symmetric.get(lam)
        if cached is not None:
            return cached
        raw, _ = self._generic_state(lam)
        # the symmetrizer's normalizer is a nonzero scalar, which the
        # monic normalization below removes anyway, so it is never applied
        image, _ = self.raw_rep._symmetrizer_sum(raw)
        lead = image.coefficient(lam)
        if not lead:
            raise NonGenericParametersError(
                "symmetrizer image has no x^%r term" % (lam,))
        poly = self._to_field(image) * self.domain.from_raw(lead) ** (-1)
        if not self.rep.d_eigen_holds(poly, lam):
            raise AssertionError(
                "symmetric polynomial fails its eigenvalue equation")
        labeled = LabeledPolynomial(
            label=lam, poly=poly,
            spectrum=weyl.spectral_vector(lam, self.domain))
        self._symmetric[lam] = labeled
        return labeled

    # -- oracle and basis checks ----------------------------------------------

    def eigen_oracle(self, degree):
        oracle = self._oracles.get(degree)
        if oracle is None:
            oracle = EigenOracle(self.rep, degree)
            self._oracles[degree] = oracle
        return oracle

    def basis_check(self, degree):
        """Exact rank of the change of basis to monomials of weight <= degree.

        Row alpha holds the coefficients of the raw chain state of alpha,
        a nonzero multiple of E_alpha built here, never read from the disk
        cache; scaling rows by nonzero scalars keeps the rank.  Certificate:
        each row's coefficient at x^alpha is nonzero (_generic_state raises
        otherwise), so if the graph with an edge alpha -> beta for every
        other beta in the support of row alpha has no cycle, list the
        labels in a topological order, supports first.  Permuting rows and
        columns by that one order makes the matrix lower triangular with a
        nonzero diagonal, so it is invertible and the rank is the size.
        This is the triangularity E_alpha = x^alpha + lower terms (Sahi
        1999; Macdonald 2003), checked on the actual rows.  A cycle proves
        nothing either way, so the rank of the same rows is then computed
        by elimination.
        """
        exponents = monomial_exponents(self.n, degree)
        index = {e: k for k, e in enumerate(exponents)}
        states = []
        graph = TopologicalSorter()
        for alpha in exponents:
            raw, _ = self._generic_state(alpha)
            if not raw.num.keys() <= index.keys():
                return {"n": self.n, "degree": degree,
                        "size": len(exponents), "rank": 0,
                        "invertible": False,
                        "error": "support escapes the filtration"}
            states.append(raw)
            graph.add(alpha, *(e for e in raw.num if e != alpha))
        try:
            graph.prepare()
            rank = len(exponents)
        except CycleError:
            rows = []
            for raw in states:
                row = [self.domain.zero] * len(exponents)
                for e, c in self._to_field(raw).terms.items():
                    row[index[e]] = c
                rows.append(row)
            rank = matrix_rank(rows, self.domain)
        return {"n": self.n, "degree": degree, "size": len(exponents),
                "rank": rank, "invertible": rank == len(exponents)}

    # -- disk cache -------------------------------------------------------------

    def _cache_path(self, alpha):
        # a change of the entry format bumps "schema", so that files in
        # the old format become misses instead of being read as truth
        key = json.dumps({
            "schema": 1,
            "n": self.n,
            "alpha": list(alpha),
            "mode": self.domain.mode,
            "assignment": (self.domain.assignment.as_strings()
                           if self.domain.assignment else None),
        }, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.cache_dir, digest + ".json")

    def _disk_read(self, alpha):
        """The cached entry for alpha, or None on a miss.

        An entry that cannot be read or decoded, or that belongs to another
        rank (from_json rejects it) or label, is a miss: nonsymmetric then
        recomputes it and rewrites the file.
        """
        if not self.cache_dir:
            return None
        try:
            with open(self._cache_path(alpha), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if data["label"] != list(alpha):
                return None
            dec = self.domain.decode_scalar
            return LabeledPolynomial(
                label=alpha,
                poly=self.ring.from_json(data),
                spectrum=tuple(dec(v) for v in data["spectrum"]))
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError):
            return None

    def _disk_write(self, labeled):
        if not self.cache_dir:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        # a temp file of its own per writer, renamed into place atomically
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(labeled.to_json(), fh, sort_keys=True)
        os.replace(tmp, self._cache_path(labeled.label))
