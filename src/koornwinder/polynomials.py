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
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import tempfile
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from . import weyl
from .intertwine import apply_intertwiner, spectral_intertwiner
from .laurent import LaurentRing, LaurentPolynomial
from .noumi import NoumiRepresentation, monomial_exponents
from .oracle import EigenOracle, matrix_rank


class NonGenericParametersError(ArithmeticError):
    """A normalizing coefficient vanished under the chosen assignment."""


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
        """The monic joint Y-eigenvector labeled by alpha."""
        alpha = self._label(alpha)
        cached = self._nonsymmetric.get(alpha)
        if cached is not None:
            return cached
        disk = self._disk_read(alpha)
        if disk is not None:
            self._nonsymmetric[alpha] = disk
            return disk
        raw, lead = self._generic_state(alpha)
        labeled = LabeledPolynomial(
            label=alpha,
            poly=self._to_field(raw) * self.domain.from_raw(lead) ** (-1),
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
        a product.
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
        lead, den, raw_num = from_raw(lead), poly.den, raw.num
        same = self.domain.product_equals
        return all(same(c, lead, from_raw(raw_num[e] * den))
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
