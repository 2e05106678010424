"""Intertwining operators: the eigenspace-shifting commutators.

S_i = [T_i, Y_i] for the finite generators and S_0 = [Y_1, U_n]; applied
to a joint Y-eigenvector for the point alpha they produce one for
s_i . alpha.  On such an eigenvector each S_i reduces to one T plus a
scalar multiple of the input (spectral_intertwiner); the literal
commutator stays as the reference.  The square of each S_i acts on an
eigenspace by an explicit scalar in the eigenvalues, which is what makes
the chain construction of the nonsymmetric polynomials invertible step
by step.
"""

from __future__ import annotations

from . import weyl


def apply_intertwiner(rep, i, f):
    """Apply S_i as a literal commutator of representation operators."""
    if i == 0:
        return rep.y(1, rep.un(f)) - rep.un(rep.y(1, f))
    if not 1 <= i <= rep.n:
        raise ValueError("intertwiner index out of range: %r" % (i,))
    return rep.t(i, rep.y(i, f)) - rep.y(i, rep.t(i, f))


def _g(tau):
    return tau - tau ** (-1)


def spectral_intertwiner(rep, i, spec, f):
    """S_i f for a joint Y-eigenvector f, Y_j f = spec[j-1] f, with one T.

    Equal to apply_intertwiner(rep, i, f) on such f.  Write y = spec and
    g(tau) = tau - 1/tau, so that a generator H with parameter tau obeys
    H - H^-1 = g(tau): T_i with t_i^(1/2), U_0 with u0^(1/2) and U_n
    with un^(1/2) (quadratic relations that the relation suite and the
    acceptance tests check).  The three identities below are the
    Bernstein-Lusztig relations of the Y-side affine Hecke algebra
    (Noumi 1995; Sahi, Ann. Math. 150, 1999), derived from these:

    * 0 < i < n.  The Y words give Y_i = T_i Y_{i+1} T_i, so
      Y_i T_i = Y_i (T_i^-1 + g(t^(1/2))) = T_i Y_{i+1} + g(t^(1/2)) Y_i
      and S_i f = T_i Y_i f - Y_i T_i f
      = (y_i - y_{i+1}) T_i f - g(t^(1/2)) y_i f.
    * i = n.  Y_n = T_n V with V = T_{n-1}..T_1 T_0 T_1^-1..T_{n-1}^-1,
      a conjugate of T_0, so T_n^-1 Y_n - Y_n^-1 T_n = V - V^-1
      = g(t0^(1/2)).  Multiplying by Y_n on the left and applying it to
      f gives y_n Y_n T_n^-1 f = T_n f + g(t0^(1/2)) y_n f; with
      T_n^-1 = T_n - g(tn^(1/2)) this is
      Y_n T_n f = y_n^-1 T_n f + (g(tn^(1/2)) y_n + g(t0^(1/2))) f, so
      S_n f = (y_n - y_n^-1) T_n f - (g(tn^(1/2)) y_n + g(t0^(1/2))) f.
    * i = 0.  From U_n = X_1^-1 T_0 Y_1^-1 and U_0 = q^(-1/2) T_0^-1 X_1,
      U_0 = q^(-1/2) Y_1^-1 U_n^-1, and U_0 - U_0^-1 = g(u0^(1/2)) reads
      q^(-1/2) Y_1^-1 U_n^-1 - q^(1/2) U_n Y_1 = g(u0^(1/2)).
      Multiplying by Y_1 on the left, applying it to f and using
      U_n^-1 = U_n - g(un^(1/2)) gives
      Y_1 U_n f = q^-1 y_1^-1 U_n f
                  - (q^(-1/2) g(u0^(1/2)) + q^-1 y_1^-1 g(un^(1/2))) f,
      so S_0 f = Y_1 U_n f - U_n Y_1 f = (q^-1 y_1^-1 - y_1) U_n f
      - (q^(-1/2) g(u0^(1/2)) + q^-1 y_1^-1 g(un^(1/2))) f,
      where U_n f = y_1^-1 X_1^-1 T_0 f.
    """
    dom, n = rep.domain, rep.n
    lead = leading_scalar(dom, n, i, spec)
    if i == 0:
        rest = (dom.q_sqrt ** (-1) * _g(dom.u0_sqrt)
                + dom.q_pow(-1) * spec[0] ** (-1) * _g(dom.un_sqrt))
        return rep.x(1, rep.t(0, f), -1) * lead - f * rest
    if i == n:
        rest = _g(dom.tn_sqrt) * spec[-1] + _g(dom.t0_sqrt)
    else:
        rest = _g(dom.t_sqrt) * spec[i - 1]
    return rep.t(i, f) * lead - f * rest


def leading_scalar(dom, n, i, spec):
    """The scalar that S_i multiplies T_i f by (X_1^-1 T_0 f for i = 0)
    in spectral_intertwiner, for the spectrum spec of f at rank n:
    y_i - y_(i+1), y_n - y_n^-1, or (q^-1 y_1^-1 - y_1) y_1^-1.
    A chain's coefficient at its label is a unit times the product of
    these scalars over its steps (KoornwinderFamily.nonsymmetric)."""
    if i == 0:
        y1_inv = spec[0] ** (-1)
        return (dom.q_pow(-1) * y1_inv - spec[0]) * y1_inv
    if i == n:
        yn = spec[-1]
        return yn - yn ** (-1)
    if 0 < i < n:
        return spec[i - 1] - spec[i]
    raise ValueError("intertwiner index out of range: %r" % (i,))


def intertwiner_square_scalar(rep, i, spec):
    """The scalar by which S_i^2 acts on the eigenspace with spectrum spec.

    Evaluates the closed form of S_i^2 as a Laurent expression in the Y's
    at the given spectral values.
    """
    dom, n = rep.domain, rep.n
    one = dom.one
    if i == 0:
        y1 = spec[0]
        return (dom.un * dom.q_pow(-1)
                * (one - dom.c_eps / y1) * (one - dom.d_eps / y1)
                * (one - dom.q * dom.c_eps * y1) * (one - dom.q * dom.d_eps * y1))
    if i == n:
        yn = spec[-1]
        return (dom.tn
                * (one - dom.a_eps * yn) * (one - dom.b_eps * yn)
                * (one - dom.a_eps / yn) * (one - dom.b_eps / yn))
    if 0 < i < n:
        yi, yj = spec[i - 1], spec[i]
        return (dom.t * yi * yj
                * (one - yi / (dom.t * yj)) * (one - yj / (dom.t * yi)))
    raise ValueError("intertwiner index out of range: %r" % (i,))


def y_exponential(rep, vector, delta, f):
    """Apply Y^(v + delta*d) = q^delta * Y_1^{v_1} ... Y_n^{v_n}.

    Note the sign asymmetry with the x-side exponential, which carries
    q^{-delta}; both are implemented exactly as defined.
    """
    for j, e in enumerate(vector, start=1):
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            f = rep.y(j, f, sign)
    if delta:
        f = f * rep.domain.q_pow(delta)
    return f


def check_intertwining(rep, i, vector, delta, f):
    """Does Y^(v+delta*d) S_i == S_i Y^(s_i(v+delta*d)) hold on f?"""
    lhs = y_exponential(rep, vector, delta, apply_intertwiner(rep, i, f))
    sv, sd = weyl.functional_action(i, vector, delta)
    rhs = apply_intertwiner(rep, i, y_exponential(rep, sv, sd, f))
    return lhs == rhs
