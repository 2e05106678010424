"""Brute-force linear-algebra oracles over exact coefficient fields.

An independent construction path for the nonsymmetric polynomials: build
the matrices of the commuting Y operators on the monomial basis of a
degree-filtration piece (legitimate because the operators preserve the
filtration), then intersect the kernels of (Y_i - eigenvalue).  The
joint eigenspace must come out one dimensional.  Also provides the exact
rank used for the change-of-basis checks.
"""

from __future__ import annotations

from . import weyl
from .noumi import monomial_exponents


def _row_echelon(rows, ncols, domain):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivots are chosen by coefficient size (domain.complexity); over
    rational function fields the elimination explodes otherwise.
    """
    complexity = domain.complexity
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        best = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                size = complexity(rows[k][c])
                if best is None or size < best:
                    pivot, best = k, size
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c] ** (-1)
        rows[r] = [v * inv if v else v for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [a - factor * b if b else a
                           for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(rows, domain):
    if not rows:
        return 0
    work = [list(r) for r in rows]
    return len(_row_echelon(work, len(work[0]), domain))


def kernel_basis(rows, ncols, domain):
    """Basis of the right kernel of the matrix given as a list of rows."""
    work = [list(r) for r in rows if any(r)]
    pivots = _row_echelon(work, ncols, domain)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [domain.zero] * ncols
        vec[free] = domain.one
        for r, c in enumerate(pivots):
            vec[c] = -work[r][free]
        basis.append(vec)
    return basis


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
        self.columns = []  # columns[i][c] = dict row -> coefficient
        for i in range(1, rep.n + 1):
            cols = []
            for e in self.basis:
                image = rep.y(i, rep.ring.monomial(e))
                col = {}
                for exp, c in image.terms.items():
                    row = self.index.get(exp)
                    if row is None:
                        raise AssertionError(
                            "Y operator left the filtration piece")
                    col[row] = c
                cols.append(col)
            self.columns.append(cols)

    def joint_eigenvector(self, alpha):
        """The normalized joint eigenvector for alpha, via exact kernels.

        Intersects ker(Y_i - spec_i) for i = 1..n and asserts the result
        is one dimensional; returns the polynomial scaled so the
        coefficient of x^alpha is one.
        """
        alpha = tuple(alpha)
        if sum(abs(x) for x in alpha) > self.degree:
            raise ValueError("alpha outside the filtration piece")
        domain = self.rep.domain
        m = len(self.basis)
        spec = weyl.spectral_vector(alpha, domain)
        space = None  # list of coordinate vectors spanning the current cut
        for i in range(self.rep.n):
            cols = self.columns[i]
            sigma = spec[i]
            if space is None:
                rows = [[domain.zero] * m for _ in range(m)]
                for ccol, col in enumerate(cols):
                    for rrow, v in col.items():
                        rows[rrow][ccol] = v
                for k in range(m):
                    rows[k][k] = rows[k][k] - sigma
                space = kernel_basis(rows, m, domain)
            else:
                images = []
                for vec in space:
                    img = [domain.zero] * m
                    for ccol, v in enumerate(vec):
                        if not v:
                            continue
                        for rrow, w in cols[ccol].items():
                            img[rrow] = img[rrow] + v * w
                    images.append([img[r] - sigma * vec[r] for r in range(m)])
                # rows of the small system: one per basis row, columns per vec
                small = [[images[k][r] for k in range(len(space))]
                         for r in range(m)]
                combo = kernel_basis(small, len(space), domain)
                space = [
                    [sum((cv * vec[r] for cv, vec in zip(coeffs, space)),
                         start=domain.zero) for r in range(m)]
                    for coeffs in combo]
            if not space:
                break
        if not space or len(space) != 1:
            raise AssertionError(
                "joint eigenspace has dimension %d, expected 1"
                % (0 if not space else len(space)))
        vec = space[0]
        lead = vec[self.index[alpha]]
        if not lead:
            raise AssertionError("eigenvector vanishes at its own label")
        inv = lead ** (-1)
        terms = {e: v * inv for e, v in zip(self.basis, vec) if v}
        return self.rep.ring.from_terms(terms)
