"""Fit relay._START, the start point of the perfect-CSI solver.

One link's optimal rate, in units of its spread s, is
X(u) = argmax_x x*Phi(u - x) with u = C/s: the root of
x*phi(u - x)/Phi(u - x) = 1, with X(0) = 0.7518.  The fit writes
D(u) = u - X(u) as a rational P(t)/Q(t) of degree 8 over 8 in
t = 2*log1p(log1p(u))/log(18) - 1, which maps u in [0, expm1(17)]
onto [-1, 1].  D grows like sqrt(2 log u) there, so it is smooth in t,
and Q stays above 0.25 on [-1, 1].  The roots come from mpmath at 30
digits on 1202 Chebyshev points in t; the fit is linearized least
squares with Sanathanan-Koerner reweighting, weighted by 1/X so that
its error is relative in X.

    python tests/fit_start.py

prints the two rows of relay._START (P, then Q, highest power first;
Q's constant term is 1) and the fit's largest relative error in X.
"""

import mpmath as mp
import numpy as np

DEGREE = 8
# u = expm1(V_MAX) = 2.4e7 is the end of the fitted range
V_MAX = 17.0
NODES = 1200
ROUNDS = 40


def optimum(u):
    """X(u) = argmax_x x*Phi(u - x) for u >= 0, at the working precision.

    Newton's method on log(x*phi(w)/Phi(w)) with w = u - x, from the
    asymptotic guess; that logarithm rises in x, and findroot raises
    unless it converges.
    """
    u = mp.mpf(u)

    def g(x):
        w = u - x
        return mp.log(x) + mp.log(mp.npdf(w)) - mp.log(mp.ncdf(w))

    def dg(x):
        w = u - x
        return 1 / x + w + mp.npdf(w) / mp.ncdf(w)

    x = max(u - mp.sqrt(2 * mp.log1p(u / mp.sqrt(2 * mp.pi))), mp.mpf(0.75))
    return mp.findroot(g, x, solver="newton", df=dg)


def fit():
    """The rows (P, Q) and their largest relative error in X."""
    k = np.arange(NODES)
    t = np.concatenate([[-1.0], -np.cos(np.pi * (k + 0.5) / NODES), [1.0]])
    u = np.expm1(np.expm1((t + 1.0) * (0.5 * np.log1p(V_MAX))))
    u[0] = 0.0
    with mp.workdps(30):
        roots = [optimum(x) for x in u]
        d = np.array([float(mp.mpf(x) - r) for x, r in zip(u, roots)])
    weight = 1.0 / np.array([float(r) for r in roots])
    powers = np.vander(t, DEGREE + 1)
    q = np.ones_like(t)
    best = (np.inf, None)
    for _ in range(ROUNDS):
        # P(t) - d*(Q(t) - 1) = d, each row scaled by weight/|Q| of the
        # last round
        scale = (weight / np.abs(q))[:, None]
        a = np.hstack([powers, -d[:, None] * powers[:, :-1]]) * scale
        sol = np.linalg.lstsq(a, d * scale[:, 0], rcond=None)[0]
        rows = np.array([sol[:DEGREE + 1], np.append(sol[DEGREE + 1:], 1.0)])
        p, q = rows @ powers.T
        err = np.max(weight * np.abs(p / q - d))
        if err < best[0]:
            best = (err, rows)
    return best[1], best[0]


if __name__ == "__main__":
    rows, err = fit()
    np.set_printoptions(precision=17, floatmode="unique", linewidth=72)
    print(repr(rows))
    print(f"largest relative error in X: {err:.3g}")
