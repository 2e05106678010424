"""Brute-force linear-algebra oracles over exact coefficient fields.

An independent construction path for the nonsymmetric polynomials: build
the matrices of the commuting Y operators on the monomial basis of a
degree-filtration piece (legitimate because the operators preserve the
filtration), then intersect the kernels of (Y_i - eigenvalue).  The
joint eigenspace must come out one dimensional.  Also provides the exact
rank used for the change-of-basis checks.

Over a specialized domain every step runs on Python ints, fraction-free
(Bareiss, Math. Comp. 22, 1968; Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992).  The columns of Y_i are stored once as int
numerators M_i over one common denominator D_i.  With split(sigma_i) =
(s_n, s_d), the matrix A_i = s_d M_i - s_n D_i I is s_d D_i (Y_i -
sigma_i), a nonzero multiple, so it has the same kernel.  A row update
p row_k - a row_r with p != 0 keeps the row space, and dividing a row or
a kernel vector by its content (the gcd of its entries) changes neither
a row space nor the line a vector spans, so every kernel is the one
over the rationals.  The joint eigenspace is one dimensional: its
nonzero vectors differ by a scalar, and exactly one of them has
coefficient one at x^alpha.  So the monic vector returned is the same
polynomial whatever multiple the elimination ends with, and it becomes
Fractions only then.  A symbolic domain splits a scalar into (c, 1), so
its D_i and s_d are 1 and the same loop runs on field elements, with
the pivot row scaled to one instead.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index

from . import weyl
from .laurent import _times
from .noumi import monomial_exponents


def _primitive(vec):
    """An int vector divided by its content, the gcd of its entries."""
    g = gcd(*vec)
    return vec if g <= 1 else [v // g for v in vec]


def _row_echelon(rows, ncols, domain):
    """Reduced row echelon form of rows, in place; returns the pivot
    column list.  Row lists are replaced, never mutated.

    Over a specialized domain the rows are ints and the elimination is
    fraction-free: the pivot p is the entry of fewest bits, and every
    other row becomes p row - a pivot_row, divided by its content.
    Otherwise pivots are chosen by coefficient size (domain.complexity),
    since over rational function fields the elimination explodes
    otherwise, and the pivot row is scaled to one.
    """
    integral = domain.mode == "specialized"
    size = int.bit_length if integral else domain.complexity
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [k for k in range(r, len(rows)) if rows[k][c]]
        if not below:
            continue
        pivot = min(below, key=lambda k: size(rows[k][c]))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if not integral:
            inv = rows[r][c] ** (-1)
            rows[r] = [v * inv if v else v for v in rows[r]]
        top, p = rows[r], rows[r][c]
        for k, row in enumerate(rows):
            a = row[c]
            if k != r and a:
                rows[k] = (
                    _primitive([p * x - a * y for x, y in zip(row, top)])
                    if integral else
                    [x - a * y if y else x for x, y in zip(row, top)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def _kernel(rows, ncols, domain):
    """Basis of the right kernel of rows, int rows over a specialized
    domain (then the basis vectors are primitive int vectors too).

    With p_r the pivot of row r and L the lcm of the pivots, the vector
    of a free column f holds L at f and -row_r[f] L / p_r at the pivot
    column of each row r; over a field p_r is 1 and L is one."""
    integral = domain.mode == "specialized"
    work = [_primitive(r) if integral else r for r in rows if any(r)]
    pivots = _row_echelon(work, ncols, domain)
    if integral:
        zero, one = 0, lcm(*(row[c] for row, c in zip(work, pivots)))
    else:
        zero, one = domain.zero, domain.one
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, c in enumerate(pivots):
            row = work[r]
            vec[c] = -row[free] * (one // row[c]) if integral else -row[free]
        basis.append(_primitive(vec) if integral else vec)
    return basis


def _integral(rows, domain):
    """Over a specialized domain, each row times the lcm of its
    denominators: int rows with the same kernel and rank.  Otherwise a
    copy of the list of rows."""
    if domain.mode != "specialized":
        return list(rows)
    out = []
    for row in rows:
        parts = [domain.split(v) for v in row]
        den = lcm(*(d for _, d in parts))
        out.append([c * (den // d) for c, d in parts])
    return out


def matrix_rank(rows, domain):
    if not rows:
        return 0
    return len(_row_echelon(_integral(rows, domain), len(rows[0]), domain))


def kernel_basis(rows, ncols, domain):
    """Basis of the right kernel of the matrix given as a list of rows;
    over a specialized domain its vectors are ints."""
    return _kernel(_integral(rows, domain), ncols, domain)


class EigenOracle:
    """Matrices of the Y operators on a fixed filtration piece.

    Construction asserts that every operator image stays inside the
    piece (the filtration invariance the construction relies on).
    """

    def __init__(self, rep, degree):
        self.rep = rep
        self.degree = degree
        self.basis = monomial_exponents(rep.n, degree)
        self.index = {e: k for k, e in enumerate(self.basis)}
        # columns[i][c]: {row: numerator} of Y_(i+1) x^basis[c], over dens[i]
        self.columns, self.dens = [], []
        for i in range(1, rep.n + 1):
            images = [rep.y(i, rep.ring.monomial(e)) for e in self.basis]
            den = lcm(*(f.den for f in images))
            cols = []
            for f in images:
                if not f.num.keys() <= self.index.keys():
                    raise AssertionError("Y operator left the filtration piece")
                cols.append({self.index[e]: c
                             for e, c in _times(f.num, den // f.den).items()})
            self.columns.append(cols)
            self.dens.append(den)

    def joint_eigenvector(self, alpha):
        """The normalized joint eigenvector for alpha, via exact kernels.

        Intersects ker(Y_i - spec_i) for i = 1..n and asserts the result
        is one dimensional; returns the polynomial scaled so the
        coefficient of x^alpha is one.
        """
        alpha = tuple(map(index, alpha))
        if len(alpha) != self.rep.n:
            raise ValueError("label has wrong length")
        if sum(map(abs, alpha)) > self.degree:
            raise ValueError("alpha outside the filtration piece")
        domain = self.rep.domain
        integral = domain.mode == "specialized"
        zero = 0 if integral else domain.zero
        m = len(self.basis)
        space = None  # a basis of the current cut; None is the whole piece
        for cols, den, sigma in zip(self.columns, self.dens,
                                    weyl.spectral_vector(alpha, domain)):
            s_num, s_den = domain.split(sigma)
            # A_i = s_den M_i - s_num D_i I, a nonzero multiple of Y_i - sigma
            rows = [[zero] * m for _ in range(m)]
            for c, col in enumerate(cols):
                for r, w in col.items():
                    rows[r][c] = w if s_den == 1 else s_den * w
            shift = s_num * den
            for k in range(m):
                rows[k][k] = rows[k][k] - shift
            if space is None:
                space = _kernel(rows, m, domain)
            else:
                # rows of the small system: one per basis row, columns per vec
                small = [[sum((a * v for a, v in zip(row, vec) if a and v),
                              start=zero) for vec in space] for row in rows]
                combo = _kernel(small, len(space), domain)
                space = [
                    [sum((cv * vec[r] for cv, vec in zip(coeffs, space)),
                         start=zero) for r in range(m)]
                    for coeffs in combo]
                if integral:
                    space = [_primitive(vec) for vec in space]
            if not space:
                break
        if len(space) != 1:
            raise AssertionError(
                "joint eigenspace has dimension %d, expected 1" % len(space))
        vec = space[0]
        lead = vec[self.index[alpha]]
        if not lead:
            raise AssertionError("eigenvector vanishes at its own label")
        inv = domain.one / lead
        terms = {e: v * inv for e, v in zip(self.basis, vec) if v}
        return self.rep.ring.from_terms(terms)
