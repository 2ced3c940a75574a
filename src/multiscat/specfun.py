"""Special functions for partial-wave scattering work.

Spherical Bessel and Neumann tables, Legendre polynomial tables, complex
spherical harmonics, normalised associated Legendre tables, and
Gauss-Legendre (one interval or composite over panels) and product
quadrature rules.  Everything is numpy: each table covers every order
0..L at once, one three-term recurrence step per order, and there is no
single-order routine.  The LS stage reads every V_l of a potential from
one ``bessel_j_table(lmax, r x q)``; a table of a lower order L agrees
with the first L + 1 rows of a higher one to rounding (its Miller start
order is lower).

Conventions (used consistently by every module that imports this one):

* Spherical harmonics carry the Condon-Shortley phase,
  ``Y_lm(theta, phi) = N_lm P_lm(cos theta) e^{i m phi}`` with
  ``Y_{l,-m} = (-1)^m conj(Y_{l,m})``.  They are orthonormal on the sphere.
* The outgoing spherical Hankel function is ``h+_l = j_l + i y_l``.

Recurrences (Abramowitz & Stegun 10.1.19 and 8.5.3):

* ``f_{l-1} + f_{l+1} = (2l+1)/x f_l`` for f = j and f = y, from
  ``j_0 = sin x / x``, ``j_1 = (j_0 - cos x)/x``, ``y_0 = -cos x / x``,
  ``y_1 = (y_0 - sin x)/x``.  y_l is the dominant solution as l grows, so
  ``bessel_y_table`` runs the recurrence upward for every x > 0.  j_l is
  the minimal one once l > x: ``bessel_j_table`` runs it upward only at
  x >= L, and elsewhere by Miller's algorithm (Gautschi, SIAM Review 9,
  1967) downward from ``f_{N+1} = 0``, ``f_N = 1`` with the start order
  ``N = L + 16 + 10 x_max^{1/3}`` (``_miller_start``): past the turning
  point l ~ x the ratio j_l/y_l falls like exp(-(2/3)(2t)^{3/2}/sqrt(x))
  at l = x + t (Debye), about 1e-26 at t = 10 x^{1/3}, so the start error
  stays far below 1e-16; a start at L alone, or at L + 16 without the
  x^{1/3} term, fails the accuracy tests.  The downward recurrence runs on
  ``g_l = f_l / s^l`` with ``s = min(x, 1)``, whose coefficients stay
  below 2N + 2 for any x > 0, and columns past 1e200 are rescaled by
  1e-200 with every row already stored.  The result is normalised against
  j_0 or j_1, whichever is larger in magnitude, so a zero of j_0 costs no
  accuracy.  Against scipy.special (and, where x^2 <= 2l + 3, the power
  series of j_l, since scipy flushes j_l to zero below about 1e-300), the
  tests hold the tables to 1e-12 relative where x < 0.8 l and to
  ``1e-14 max(1, |f|)`` elsewhere, for L <= 16 on x in [0, 250] and for
  L <= 216 on x in (0, 60], down to x = 1e-8; the worst relative error
  measured is 3e-13.  j_l(0) is exactly delta_l0.
* Bonnet: ``(l+1) P_{l+1}(u) = (2l+1) u P_l(u) - l P_{l-1}(u)``.
* Derivatives come from the tables: ``f_l' = f_{l-1} - (l+1) f_l / x``,
  ``f_0' = -f_1`` (``bessel_derivative``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest angular momentum any routine in this module is vetted for.
LMAX_SUPPORTED = 220

#: Magnitude past which the downward j recurrence rescales a column.
_RESCALE = 1e200


# ---------------------------------------------------------------------------
# spherical Bessel family
# ---------------------------------------------------------------------------

def _check_l(l: int) -> int:
    if l < 0 or l != int(l):
        raise ValueError(f"angular momentum l must be a nonnegative integer, got {l}")
    if l > LMAX_SUPPORTED:
        raise ValueError(f"l={l} exceeds LMAX_SUPPORTED={LMAX_SUPPORTED}")
    return int(l)


def _miller_start(L: int, x_max: float) -> int:
    """Start order of the downward j recurrence for orders <= L at x <= x_max < L."""
    return L + 16 + int(10.0 * x_max ** (1.0 / 3.0))


def _j_upward(L: int, x: np.ndarray) -> np.ndarray:
    """j_0..j_L by the upward recurrence, x >= max(L, 1) or L = 0."""
    rows = np.empty((L + 1, x.size))
    rows[0] = np.sin(x) / x
    if L:
        rows[1] = (rows[0] - np.cos(x)) / x
    for l in range(1, L):
        rows[l + 1] = (2 * l + 1) / x * rows[l] - rows[l - 1]
    return rows


def _j_miller(L: int, x: np.ndarray) -> np.ndarray:
    """j_0..j_L by Miller's downward recurrence, 0 < x < L."""
    s = np.minimum(x, 1.0)
    c1, c2 = s / x, s * s
    N = _miller_start(L, float(x.max()))
    # max(|g_l|, |g_{l+1}|) grows at most by 2N + 2 a step: checking every
    # `every` steps keeps every value below _RESCALE * 1e100
    every = max(1, int(100.0 / math.log10(2 * N + 2)))
    rows = np.empty((L + 1, x.size))
    g_next, g = np.zeros(x.size), np.ones(x.size)      # g_{N+1}, g_N
    for l in range(N, 0, -1):
        if l <= L:
            rows[l] = g
        g_next, g = g, (2 * l + 1) * c1 * g - c2 * g_next
        if (N - l) % every == 0:
            factor = np.where(np.abs(g) > _RESCALE, 1.0 / _RESCALE, 1.0)
            g = g * factor
            g_next = g_next * factor
            rows[l:] *= factor
    # g = g_0 and g_next = g_1: normalise on the larger of j_0, j_1 = s g_1 C
    j0 = np.sin(x) / x
    j1 = (j0 - np.cos(x)) / x
    norm = np.where(np.abs(j0) >= np.abs(j1), j0 / g, j1 / (s * g_next))
    rows[0] = g
    rows *= norm
    rows *= s ** np.arange(L + 1)[:, None]
    return rows


def _bessel_j(L: int, x: np.ndarray) -> np.ndarray:
    """j_0..j_L as an (L+1, n) table at the flat array x >= 0."""
    out = np.zeros((L + 1, x.size))
    zero = x == 0
    out[0, zero] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for cols, branch in (((x >= L) & ~zero, _j_upward), ((x < L) & ~zero, _j_miller)):
            if np.any(cols):
                out[:, cols] = branch(L, x[cols])
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"spherical Bessel j overflow/invalid for L={L}")
    return out


def _as_argument(x, positive: bool, name: str) -> np.ndarray:
    """x as a float array; ValueError unless every entry is >= 0 (> 0 if positive)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0 if positive else x >= 0):
        raise ValueError(f"{name} requires x {'>' if positive else '>='} 0")
    return x


def bessel_j_table(L: int, x) -> np.ndarray:
    """j_0(x)..j_L(x) for x >= 0: shape ``(L+1,) + shape(x)``."""
    L = _check_l(L)
    x = _as_argument(x, False, "bessel_j_table")
    return _bessel_j(L, x.ravel()).reshape((L + 1,) + x.shape)


def bessel_y_table(L: int, x) -> np.ndarray:
    """y_0(x)..y_L(x) for x > 0 by the upward recurrence: shape ``(L+1,) + shape(x)``."""
    L = _check_l(L)
    x = _as_argument(x, True, "bessel_y_table")
    rows = np.empty((L + 1,) + x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0] = -np.cos(x) / x
        if L:
            rows[1] = (rows[0] - np.sin(x)) / x
        for l in range(1, L):
            rows[l + 1] = (2 * l + 1) / x * rows[l] - rows[l - 1]
    if not np.all(np.isfinite(rows)):
        raise OverflowError(f"spherical Bessel y overflow for L={L} (argument too small)")
    return rows


def bessel_derivative(table: np.ndarray, x) -> np.ndarray:
    """f_0'..f_L' from a j or y table f_0..f_L (L >= 1) at the same x > 0."""
    f = np.asarray(table)
    x = _as_argument(x, True, "bessel_derivative")
    if f.shape[0] < 2:
        raise ValueError("bessel_derivative needs a table with orders 0 and 1")
    l = np.arange(1, f.shape[0]).reshape((-1,) + (1,) * x.ndim)
    d = np.empty_like(f)
    d[0] = -f[1]
    d[1:] = f[:-1] - (l + 1) * f[1:] / x
    return d


def legendre_table(L: int, u) -> np.ndarray:
    """P_0(u)..P_L(u) by Bonnet's recurrence: shape ``(L+1,) + shape(u)``."""
    L = _check_l(L)
    u = np.asarray(u, dtype=float)
    rows = np.empty((L + 1,) + u.shape)
    rows[0] = 1.0
    if L:
        rows[1] = u
    for l in range(1, L):
        rows[l + 1] = ((2 * l + 1) * u * rows[l] - l * rows[l - 1]) / (l + 1)
    return rows


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def _dirs_to_angles(dirs: np.ndarray):
    d = np.asarray(dirs, dtype=float)
    scalar = d.ndim == 1
    d = np.atleast_2d(d)
    norm = np.linalg.norm(d, axis=1)
    if np.any(norm == 0):
        raise ValueError("zero vector has no direction")
    d = d / norm[:, None]
    ct = np.clip(d[:, 2], -1.0, 1.0)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    phi = np.arctan2(d[:, 1], d[:, 0])
    return ct, st, phi, scalar


def tri_index(l: int, m: int) -> int:
    """Flat index of (l, m >= 0) in a triangular Legendre table."""
    return l * (l + 1) // 2 + m


def plm_norm_table(lmax: int, ct, st=None) -> np.ndarray:
    """Fully normalised associated Legendre functions at cos(theta) values.

    Entry ``tri_index(l, m)`` holds ``N_lm P_lm(ct)`` with the Condon-Shortley
    phase and the 1/sqrt(4 pi) folded in, so ``Y_lm = plm * exp(i m phi)``
    for m >= 0.  The forward column recurrence is numerically stable far
    beyond l = 100; it runs over l with every m of a row at once (the
    triangular layout keeps each l contiguous).
    """
    lmax = _check_l(lmax)
    ct = np.atleast_1d(np.asarray(ct, dtype=float))
    if st is None:
        st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    plm = np.zeros((tri_index(lmax, lmax) + 1, ct.size))
    plm[0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, lmax + 1):
        plm[tri_index(m, m)] = (-math.sqrt((2 * m + 1) / (2.0 * m)) * st
                                * plm[tri_index(m - 1, m - 1)])
    m = np.arange(lmax)
    plm[tri_index(m + 1, m)] = np.sqrt(2 * m + 3.0)[:, None] * ct * plm[tri_index(m, m)]
    for l in range(2, lmax + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1))[:, None]
        p1, p2 = tri_index(l - 1, 0), tri_index(l - 2, 0)
        row = tri_index(l, 0)
        plm[row:row + l - 1] = a * (ct * plm[p1:p1 + l - 1] - b * plm[p2:p2 + l - 1])
    return plm


def ylm_table(lmax: int, dirs) -> np.ndarray:
    """All Y_lm for l <= lmax at the given directions.

    Returns a complex array of shape ``((lmax+1)**2, n)`` indexed by
    ``sph_index(l, m) = l*l + l + m``.
    """
    lmax = _check_l(lmax)
    ct, st, phi, scalar = _dirs_to_angles(dirs)
    plm = plm_norm_table(lmax, ct, st)
    m = np.arange(1, lmax + 1)
    e = np.exp(1j * m[:, None] * phi)       # e[m - 1] = e^{i m phi}
    sign = (-1.0) ** m
    out = np.empty(((lmax + 1) ** 2, ct.size), dtype=complex)
    for l in range(lmax + 1):
        c = sph_index(l, 0)
        out[c] = plm[tri_index(l, 0)]
        ypos = plm[tri_index(l, 1):tri_index(l, l) + 1] * e[:l]
        out[c + 1:c + l + 1] = ypos
        # Y_{l,-m} = (-1)^m conj(Y_lm), rows c - 1 down to c - l
        out[c - l:c][::-1] = sign[:l, None] * np.conj(ypos)
    return out[:, 0] if scalar else out


def sph_index(l: int, m: int) -> int:
    """Flat index of (l, m) in a [0..lmax] harmonic table: l*l + l + m."""
    return l * l + l + m


# ---------------------------------------------------------------------------
# angular quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularGrid:
    """Product Gauss-Legendre x uniform-phi quadrature on the unit sphere.

    Integrates spherical polynomials of total degree <= ``degree`` exactly
    (up to roundoff); weights sum to 4*pi.
    """

    nodes: np.ndarray    # (n, 3) unit vectors
    weights: np.ndarray  # (n,)
    degree: int

    @classmethod
    def for_degree(cls, degree: int) -> "AngularGrid":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        n_theta = (degree + 2) // 2 + 1
        n_phi = degree + 1
        xg, wg = gauss_legendre(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        st = np.sqrt(1.0 - xg ** 2)
        nodes = np.empty((n_theta * n_phi, 3))
        nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
        nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
        nodes[:, 2] = np.outer(xg, np.ones(n_phi)).ravel()
        weights = np.outer(wg, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
        return cls(nodes=nodes, weights=weights, degree=degree)

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def n_phi(self) -> int:
        """Uniform phi nodes per theta ring; the nodes run phi-fastest."""
        return self.degree + 1


#: Veltkamp's splitting constant 2^27 + 1: with t = s x, the head t - (t - x)
#: keeps the top 26 bits of x, so an integer f < 2^26 times it is exact.
_SPLIT = 134217729.0

#: Newton passes allowed for the Gauss-Legendre nodes; n <= 5000 takes at
#: most 5 (four steps and the pass that finds the last one below 1e-14).
_NEWTON_PASSES = 8

#: Largest n |theta - head| at which the order-6 Taylor series of
#: ``gauss_legendre`` is summed: the first term it drops is below
#: 0.01^7 / 7! = 2e-18.  Tricomi's guesses lie within 0.0039 / n of the nodes.
_TAYLOR_REACH = 0.01


@lru_cache(maxsize=64, typed=True)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1], ascending, shared and read-only.

    Newton's method in theta, x = cos theta, on Stieltjes' series
    ``P_n(cos theta) = sum_k g_k g_{n-k} cos((n - 2k) theta)``,
    ``g_k = C(2k, k) / 4^k`` (Szego, Orthogonal Polynomials, 4.9.3), with
    the terms k and n - k folded into the n//2 + 1 distinct frequencies f.
    The guesses are Tricomi's, ``x_i = (1 - (n-1)/(8 n^3)) cos(pi (4i - 1)
    / (4n + 2))`` on the positive half.  Each guess is split into a 26-bit
    head, so that every ``f head`` is exact, and a tail.  The series and its
    first seven theta-derivatives are summed once at the heads: one cos and
    one sin of an (n/2, n/2 + 1) table, O(n^2).  Every Newton step then
    sums an order-6 Taylor series in the tail, until every step is below
    1e-14 (three or four steps for n from 2 to 5000); a tail beyond
    ``_TAYLOR_REACH / n``, or more than ``_NEWTON_PASSES`` passes, raises
    RuntimeError.  The weights are ``w = 2 / (dP_n/dtheta)^2`` at the final
    nodes, and the middle weight of an odd rule is ``2 / (n g_{(n-1)/2})^2``.
    The negative half is the mirror image, so the rule is exactly
    antisymmetric and the middle node of an odd rule is exactly 0.0.
    Against 40-digit roots the nodes are within 1.2e-16, and the weights
    within 4e-15 relative, for n up to 640.  Newton in theta from
    asymptotic guesses is the method of Hale and Townsend (SIAM J. Sci.
    Comput. 35 (2013) A652); they sum P_n by its recurrence or asymptotics.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, got {n}")
    k = np.arange(1, n + 1)
    g = np.concatenate([[1.0], np.cumprod((2 * k - 1) / (2 * k))])
    j = np.arange(n // 2 + 1)
    f = n - 2.0 * j
    a = np.where(2 * j == n, 1.0, 2.0) * g[j] * g[n - j]
    i = np.arange(1, n // 2 + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos(np.pi * (4 * i - 1) / (4 * n + 2)))
    t = _SPLIT * theta
    head = t - (t - theta)
    tail = theta - head
    # d[:, k] = d^k P_n / dtheta^k at the heads, k = 0..7: the k-th
    # derivative of cos(f theta) is f^k cos(f theta + k pi / 2)
    ak = a * f ** np.arange(8)[:, None] * np.array([1, -1, -1, 1, 1, -1, -1, 1])[:, None]
    fh = np.multiply.outer(head, f)
    d = np.empty((head.size, 8))
    d[:, 0::2] = np.cos(fh) @ ak[0::2].T
    d[:, 1::2] = np.sin(fh, out=fh) @ ak[1::2].T
    inv_factorial = 1.0 / np.array([1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0])
    step = np.inf
    for _ in range(_NEWTON_PASSES):
        powers = tail[:, None] ** np.arange(7) * inv_factorial
        dp = np.sum(d[:, 1:] * powers, axis=1)            # dP_n/dtheta
        if np.max(np.abs(step), initial=0.0) < 1e-14:
            break
        step = np.sum(d[:, :7] * powers, axis=1) / dp      # P_n / (dP_n/dtheta)
        tail -= step
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge "
                           f"in {_NEWTON_PASSES} Newton passes")
    if n * np.max(np.abs(tail), initial=0.0) > _TAYLOR_REACH:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} moved past the "
                           f"Taylor series' reach {_TAYLOR_REACH} / n")
    x = np.cos(head) * np.cos(tail) - np.sin(head) * np.sin(tail)
    w = 2.0 / dp ** 2
    x_mid, w_mid = ([0.0], [2.0 / (n * g[n // 2]) ** 2]) if n % 2 else ([], [])
    x = np.concatenate([-x, x_mid, x[::-1]])
    w = np.concatenate([w, w_mid, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def octave_edges(edges) -> list:
    """``edges`` with every panel [a, b], a > 0, split at 2a, 4a, ... while b/a > 2.5.

    The node budget of each panel then tracks a local scale that grows
    with r.
    """
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        while a > 0 and b / a > 2.5:
            a *= 2.0
            out.append(a)
        out.append(b)
    return out


def gauss_panels(edges, n):
    """Composite Gauss-Legendre rule over the panels between successive edges.

    ``n`` is the node count of every panel, or a sequence with one count per
    panel.  Returns the concatenated nodes and weights.
    """
    counts = [n] * (len(edges) - 1) if np.ndim(n) == 0 else n
    nodes, weights = [], []
    for a, b, m in zip(edges[:-1], edges[1:], counts):
        x, w = gauss_legendre(m)
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)
