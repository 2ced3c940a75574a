"""Test oracles: independent reference evaluations the library does not use.

* ``wigner3j`` - Racah's closed form in exact rational arithmetic;
* ``gaunt`` - the integral of ``Y_{l1 m1} Y_{l2 m2} conj(Y_{l3 m3})`` over
  the sphere, one coefficient at a time; it vanishes identically unless
  ``m3 = m1 + m2``, the triangle rule holds and ``l1 + l2 + l3`` is even;
* ``r0_kernel`` - the free-resolvent kernel -e^{i sqrt(z) r}/(4 pi r);
* ``ktilde_kernel`` - the two-center kernel evaluated pointwise, with no
  regularisation of near-coincident points;
* ``dense_grid_schatten4`` - the grid Schatten-4 norm from the dense
  (n_nodes x n_nodes) kernel on the library's ball grids, in the lab frame;
* ``ylm`` - a single spherical harmonic;
* ``plm_norm_table_loop`` and ``ylm_table_loop`` - the normalised Legendre
  and spherical-harmonic tables by scalar double loops over (l, m), which
  the library's row-vectorised tables must reproduce bit for bit;
* ``g_entry`` and ``expansion_value`` - one structure constant, and the
  displaced-wave re-expansion of the resolvent summed at a point pair;
* ``standing_companion`` - the principal-value transform of a pair profile,
  one grid node at a time;
* ``rollnik_quad`` - the two Rollnik norms by adaptive quadrature
  (``scipy.integrate.quad``);
* ``zaxis_blocks`` and ``spectral_schatten4_per_k`` - the m-diagonal
  structure-constant blocks with R along z, and the spectral Schatten-4 norm
  at one k from them, each Gaunt table built at that k's own truncation.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from multiscat.greens import (
    _SPECTRAL_LMAX_CAP,
    _SPECTRAL_RADIAL_NODES,
    _ball_grid,
    _g_block,
    _gaunt_integrals,
    _nu_weights,
    _outgoing_waves,
    _sigma4,
)
from multiscat.specfun import (
    _check_l,
    _dirs_to_angles,
    bessel_j_table,
    gauss_legendre,
    plm_norm_table,
    sph_index,
    tri_index,
    ylm_table,
)


class ConvergenceRegionError(ValueError):
    """Evaluation point outside the re-expansion's region of validity."""


def r0_kernel(z, x, y):
    """Free-resolvent kernel <x|R0(z)|y> = -e^{i sqrt(z) r}/(4 pi r)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(x - y, axis=-1)
    if np.any(r == 0):
        raise ValueError("r0_kernel is singular at x = y")
    out = -np.exp(1j * z.sqrt_z * r) / (4.0 * np.pi * r)
    return complex(out) if np.ndim(out) == 0 else out


def ktilde_kernel(j, h, z, x, y):
    """Two-center kernel phi_j(x) e^{i sqrt(z) r}/(4 pi i r) phi_h(y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rj = np.linalg.norm(x - j.center_array, axis=-1)
    rh = np.linalg.norm(y - h.center_array, axis=-1)
    r = np.linalg.norm(x - y, axis=-1)
    if np.any(r == 0):
        raise ValueError("ktilde_kernel is singular at x = y")
    out = (j.potential.phi(rj) * h.potential.phi(rh)
           * np.exp(1j * z.sqrt_z * r) / (4.0j * np.pi * r))
    return complex(out) if np.ndim(out) == 0 else out


def _capped_ktilde(j, h, z, x, wx, y, wy):
    """Two-center kernel with |x-y| capped at 2/3 of the larger cell radius.

    The cell radius of a node of weight w is (3 w/(4 pi))^{1/3}; the cap
    tames the integrable 1/|x-y| diagonal of overlapping supports.
    """
    rho_x = (3.0 * wx / (4.0 * np.pi)) ** (1.0 / 3.0)
    rho_y = (3.0 * wy / (4.0 * np.pi)) ** (1.0 / 3.0)
    r = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    r = np.maximum(r, (2.0 / 3.0) * np.maximum(rho_x[:, None], rho_y[None, :]))
    rj = np.linalg.norm(x - j.center_array, axis=-1)
    rh = np.linalg.norm(y - h.center_array, axis=-1)
    return (j.potential.phi(rj)[:, None] * h.potential.phi(rh)[None, :]
            * np.exp(1j * z.sqrt_z * r) / (4.0j * np.pi * r))


def dense_grid_schatten4(j, h, z, n_radial, angular_order, kernel=None):
    """||M^H M||_F^{1/2} of the dense node-pair matrix M = sqrt(w_x) K sqrt(w_y).

    The nodes are ``_ball_grid``'s around each scatterer's own centre, in
    the lab frame.  ``kernel(X, Y)`` replaces the capped two-center kernel
    when given.
    """
    pj, wj, _ = _ball_grid(j, n_radial, angular_order)
    ph, wh, _ = _ball_grid(h, n_radial, angular_order)
    K = _capped_ktilde(j, h, z, pj, wj, ph, wh) if kernel is None else kernel(pj, ph)
    M = np.sqrt(wj)[:, None] * K * np.sqrt(wh)[None, :]
    return float(np.linalg.norm(M.conj().T @ M)) ** 0.5


def zaxis_blocks(k: float, R_len: float, lmax: int):
    """m-diagonal structure-constant blocks g[l - m, l' - m], m = 0..lmax, R along z."""
    c = _outgoing_waves(k, (0.0, 0.0, R_len), 2 * lmax)
    return [_g_block(k, c, _gaunt_integrals(m, m, lmax), m, m, lmax)
            for m in range(lmax + 1)]


def spectral_schatten4_per_k(pot_j, pot_h, k: float, R_len: float):
    """(value, delta) of the spectral Schatten-4 norm at one k, from zaxis_blocks.

    The same truncations and radial rules as the library's batched
    ``schatten4_norm_spectral``, with every Gaunt table built for this k
    alone.
    """
    ka = k * max(pot_j.effective_radius(), pot_h.effective_radius())
    ratio = (pot_j.effective_radius() + pot_h.effective_radius()) / R_len
    pad = int(min(60.0, max(12.0, -18.0 / np.log(min(ratio, 0.95)))))
    lmax = min(int(ka + 4.0 * (ka + 1.0) ** (1.0 / 3.0)) + pad, _SPECTRAL_LMAX_CAP)
    blocks = zaxis_blocks(k, R_len, lmax + 8)

    def total(lm, n_rad):
        root_j = np.sqrt(_nu_weights(pot_j, k, lm, n_rad))
        root_h = np.sqrt(_nu_weights(pot_h, k, lm, n_rad))
        return sum((1.0 if m == 0 else 2.0) * _sigma4(
            root_j[m:, None] * blocks[m][:lm - m + 1, :lm - m + 1] * root_h[None, m:])
            for m in range(lm + 1)) ** 0.25

    v1 = total(lmax, _SPECTRAL_RADIAL_NODES)
    v2 = total(lmax + 8, _SPECTRAL_RADIAL_NODES * 3 // 2)
    return v2, abs(v2 - v1) / max(abs(v2), 1e-300)


def plm_norm_table_loop(lmax: int, ct, st=None) -> np.ndarray:
    """``specfun.plm_norm_table`` one (l, m) entry at a time."""
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


def ylm_table_loop(lmax: int, dirs) -> np.ndarray:
    """``specfun.ylm_table`` one (l, m) row at a time, on ``plm_norm_table_loop``."""
    lmax = _check_l(lmax)
    ct, st, phi, scalar = _dirs_to_angles(dirs)
    plm = plm_norm_table_loop(lmax, ct, st)
    out = np.zeros(((lmax + 1) ** 2, ct.size), dtype=complex)
    for l in range(lmax + 1):
        out[sph_index(l, 0)] = plm[tri_index(l, 0)]
        for m in range(1, l + 1):
            e = np.exp(1j * m * phi)
            ypos = plm[tri_index(l, m)] * e
            out[sph_index(l, m)] = ypos
            out[sph_index(l, -m)] = (-1) ** m * np.conj(ypos)
    return out[:, 0] if scalar else out


def ylm(l: int, m: int, direction) -> complex:
    """Single spherical harmonic Y_lm evaluated at a 3-direction."""
    l = _check_l(l)
    if abs(m) > l:
        raise ValueError(f"|m| <= l required, got l={l}, m={m}")
    tab = ylm_table(l, direction)
    if tab.ndim == 1:
        return complex(tab[sph_index(l, m)])
    return tab[sph_index(l, m)]


def g_entry(g, l: int, m: int, lp: int, mp: int) -> complex:
    """The structure constant g_{lm;l'm'} of a ``StructureConstantMatrix``."""
    return complex(g.matrix[sph_index(l, m), sph_index(lp, mp)])


def expansion_value(g, x, y) -> complex:
    """Evaluate the displaced-wave expansion of ``g`` at coordinates (x, y).

    x is measured from the origin-center, y from the origin as well
    (the second center sits at g.R).  Raises ConvergenceRegionError
    outside |x| + |y - R| < |R|.
    """
    R = np.asarray(g.R, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(y, dtype=float) - R
    rx = float(np.linalg.norm(x))
    rv = float(np.linalg.norm(v))
    Rlen = float(np.linalg.norm(R))
    if rx + rv >= Rlen:
        raise ConvergenceRegionError(
            f"|x| + |y-R| = {rx + rv:.4g} >= |R| = {Rlen:.4g}: "
            "outside the expansion's convergence region")
    xa = ylm_table(g.lmax, x if rx > 0 else np.array([0.0, 0.0, 1.0]))
    ya = ylm_table(g.lmax, v if rv > 0 else np.array([0.0, 0.0, 1.0]))
    reps = 2 * np.arange(g.lmax + 1) + 1
    jx = np.repeat(bessel_j_table(g.lmax, g.k0 * rx), reps)
    jy = np.repeat(bessel_j_table(g.lmax, g.k0 * rv), reps)
    return complex((jx * xa) @ g.matrix @ (jy * np.conj(ya)))


def standing_companion(grid, S):
    """PV transform Sy(q) = (2/(pi q)) PV int dk k^2 S(k)/(q^2 - k^2), node by node."""
    from scipy.interpolate import CubicSpline
    q = grid.nodes
    w = grid.weights
    P = grid.p_max
    f = q * q * S
    spl_re = CubicSpline(q, f.real)
    spl_im = CubicSpline(q, f.imag)
    fprime = spl_re(q, 1) + 1j * spl_im(q, 1)
    Sy = np.empty_like(S)
    denom_all = np.subtract.outer(q * q, q * q)   # q_i^2 - k_j^2
    for i, qi in enumerate(q):
        diff = f - f[i]
        den = denom_all[i]
        den[i] = 1.0
        terms = w * diff / den
        terms[i] = -w[i] * fprime[i] / (2.0 * qi)
        pv = terms.sum() + f[i] * np.log((P + qi) / (P - qi)) / (2.0 * qi)
        Sy[i] = (2.0 / (np.pi * qi)) * pv
    return Sy


def rollnik_quad(p):
    """(l1_norm, l2_norm) of V by adaptive quadrature on [0, r_max].

    The same truncation radius and break points as potentials.rollnik_check.
    """
    from scipy.integrate import quad
    r_max = max(p.effective_radius(), p.a)
    pts = [x for x in sorted(set(p.breakpoints()) | {r_max / 2}) if x < r_max]

    def integrate(f):
        return quad(f, 0.0, r_max, points=pts, limit=400, epsabs=1e-13, epsrel=1e-11)

    l1, _ = integrate(lambda r: 4.0 * np.pi * r * r * abs(p.evaluate(r)))
    l2sq, _ = integrate(lambda r: 4.0 * np.pi * r * r * p.evaluate(r) ** 2)
    return l1, math.sqrt(l2sq)


@lru_cache(maxsize=None)
def _w3j_exact(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    # Racah's closed form evaluated in exact rational arithmetic; the final
    # square root is taken in log space so large factorials cannot overflow.
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (f(t) * f(j3 - j2 + t + m1) * f(j3 - j1 + t - m2)
               * f(j1 + j2 - j3 - t) * f(j1 - t - m1) * f(j2 - t + m2))
        s += Fraction((-1) ** t, den)
    if s == 0:
        return 0.0
    num = (f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
           * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2)
           * f(j3 + m3) * f(j3 - m3))
    den = f(j1 + j2 + j3 + 1)
    sign = (-1) ** (j1 - j2 - m3) * (1 if s > 0 else -1)
    log_mag = (math.log(abs(s.numerator)) - math.log(s.denominator)
               + 0.5 * (math.log(num) - math.log(den)))
    return sign * math.exp(log_mag)


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol for integer arguments (exact rational evaluation)."""
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        _check_l(j)
        if abs(m) > j:
            return 0.0
    return _w3j_exact(j1, j2, j3, m1, m2, m3)




@lru_cache(maxsize=16)
def _plm_quad_table(lmax: int, n_nodes: int):
    x, w = gauss_legendre(n_nodes)
    return plm_norm_table(lmax, x), w


def _neg_m_sign(m: int) -> float:
    # Y_{l,-|m|} = (-1)^{|m|} N_{l|m|} P_{l|m|} e^{-i|m| phi}
    return (-1.0) ** (-m) if m < 0 else 1.0


@lru_cache(maxsize=None)
def _gaunt_cached(l1, m1, l2, m2, l3, m3) -> float:
    # Triple products of normalised associated Legendre functions are
    # polynomials of degree l1+l2+l3 when m3 = m1+m2, so Gauss-Legendre
    # integrates them exactly.
    deg = l1 + l2 + l3
    n = 32 * ((deg // 2 + 2) // 32 + 1)
    plm, w = _plm_quad_table(max(l1, l2, l3), n)
    prod = (plm[tri_index(l1, abs(m1))] * plm[tri_index(l2, abs(m2))]
            * plm[tri_index(l3, abs(m3))])
    sign = _neg_m_sign(m1) * _neg_m_sign(m2) * _neg_m_sign(m3)
    return float(2.0 * math.pi * sign * np.dot(w, prod))


def gaunt(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Gaunt coefficient: integral of Y_{l1m1} Y_{l2m2} conj(Y_{l3m3}) dOmega.

    Selection rules (m3 = m1+m2, triangle rule, even parity) return an
    exact 0.0; exchange symmetry in (l1,m1) <-> (l2,m2) is exact because
    arguments are canonicalised before evaluation.  Nonzero values come
    from an exact-degree Gauss-Legendre integral of the associated
    Legendre triple product, which is machine accurate for any supported l.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        _check_l(l)
        if abs(m) > l:
            raise ValueError(f"|m| <= l required, got l={l}, m={m}")
    if m1 + m2 != m3:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if (l1 + l2 + l3) % 2 != 0:
        return 0.0
    if (l2, m2) < (l1, m1):
        l1, m1, l2, m2 = l2, m2, l1, m1
    return _gaunt_cached(l1, m1, l2, m2, l3, m3)
