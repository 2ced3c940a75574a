"""Special functions for partial-wave scattering work.

Spherical Bessel/Neumann/Hankel functions, complex spherical harmonics,
normalised associated Legendre tables, and Gauss-Legendre (one interval or
composite over panels) and product quadrature rules.

Conventions (used consistently by every module that imports this one):

* Spherical harmonics carry the Condon-Shortley phase,
  ``Y_lm(theta, phi) = N_lm P_lm(cos theta) e^{i m phi}`` with
  ``Y_{l,-m} = (-1)^m conj(Y_{l,m})``.  They are orthonormal on the sphere.
* The outgoing spherical Hankel function is ``h+_l = j_l + i y_l``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import spherical_jn, spherical_yn

#: Largest angular momentum any routine in this module is vetted for.
LMAX_SUPPORTED = 220


# ---------------------------------------------------------------------------
# spherical Bessel family
# ---------------------------------------------------------------------------

def _check_l(l: int) -> int:
    if l < 0 or l != int(l):
        raise ValueError(f"angular momentum l must be a nonnegative integer, got {l}")
    if l > LMAX_SUPPORTED:
        raise ValueError(f"l={l} exceeds LMAX_SUPPORTED={LMAX_SUPPORTED}")
    return int(l)


def bessel_j(l: int, x):
    """Spherical Bessel function j_l(x) for x >= 0 (scalar or array)."""
    l = _check_l(l)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    out = spherical_jn(l, x)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"bessel_j overflow/invalid for l={l}")
    return out if out.ndim else float(out)


def bessel_j_prime(l: int, x):
    """Derivative j_l'(x)."""
    l = _check_l(l)
    x = np.asarray(x, dtype=float)
    out = spherical_jn(l, x, derivative=True)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"bessel_j_prime overflow/invalid for l={l}")
    return out if out.ndim else float(out)


def bessel_y(l: int, x):
    """Spherical Neumann function y_l(x) for x > 0 (scalar or array)."""
    l = _check_l(l)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("bessel_y is singular at x = 0; requires x > 0")
    out = spherical_yn(l, x)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"bessel_y overflow for l={l} (argument too small)")
    return out if out.ndim else float(out)


def bessel_y_prime(l: int, x):
    """Derivative y_l'(x), x > 0."""
    l = _check_l(l)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("bessel_y_prime requires x > 0")
    out = spherical_yn(l, x, derivative=True)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"bessel_y_prime overflow for l={l}")
    return out if out.ndim else float(out)


def hankel_plus(l: int, x):
    """Outgoing spherical Hankel function h+_l(x) = j_l(x) + i y_l(x), x > 0."""
    return bessel_j(l, x) + 1j * bessel_y(l, x)


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
    beyond l = 100.
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
    for m in range(0, lmax):
        plm[tri_index(m + 1, m)] = math.sqrt(2 * m + 3) * ct * plm[tri_index(m, m)]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1))
            plm[tri_index(l, m)] = a * (ct * plm[tri_index(l - 1, m)]
                                        - b * plm[tri_index(l - 2, m)])
    return plm


def ylm_table(lmax: int, dirs) -> np.ndarray:
    """All Y_lm for l <= lmax at the given directions.

    Returns a complex array of shape ``((lmax+1)**2, n)`` indexed by
    ``sph_index(l, m) = l*l + l + m``.
    """
    lmax = _check_l(lmax)
    ct, st, phi, scalar = _dirs_to_angles(dirs)
    plm = plm_norm_table(lmax, ct, st)
    out = np.zeros(((lmax + 1) ** 2, ct.size), dtype=complex)
    for l in range(lmax + 1):
        out[sph_index(l, 0)] = plm[tri_index(l, 0)]
        for m in range(1, l + 1):
            e = np.exp(1j * m * phi)
            ypos = plm[tri_index(l, m)] * e
            out[sph_index(l, m)] = ypos
            out[sph_index(l, -m)] = (-1) ** m * np.conj(ypos)
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


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
