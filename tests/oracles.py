"""Test oracles: independent reference evaluations the library does not use.

* ``wigner3j`` - Racah's closed form in exact rational arithmetic;
* ``gaunt`` - the integral of ``Y_{l1 m1} Y_{l2 m2} conj(Y_{l3 m3})`` over
  the sphere, one coefficient at a time; it vanishes identically unless
  ``m3 = m1 + m2``, the triangle rule holds and ``l1 + l2 + l3`` is even;
* ``r0_kernel`` - the free-resolvent kernel -e^{i sqrt(z) r}/(4 pi r);
* ``phi`` - the factor of V with phi^2 = V, +i sqrt(|V|) where V < 0 (the
  library's Schatten norms carry |V|^{1/2} instead);
* ``ktilde_kernel`` - the two-center kernel evaluated pointwise, with no
  regularisation of near-coincident points;
* ``ktilde_slice_trig`` - one phi node's slice of the grid kernel, the
  library's ``_ktilde_matrix`` with its phase from ``np.sin`` and
  ``np.cos`` of k d;
* ``dense_grid_schatten4`` - the grid Schatten-4 norm from the dense
  (n_nodes x n_nodes) kernel with the complex phi on the library's ball
  grids, in the lab frame;
* ``ylm`` - a single spherical harmonic;
* ``gauss_legendre_weights_mp`` - Gauss-Legendre weights at 40 digits
  (mpmath, from the ``sympy`` test extra), from Newton-polished nodes;
* ``plm_norm_table_loop`` and ``ylm_table_loop`` - the normalised Legendre
  and spherical-harmonic tables by scalar double loops over (l, m), which
  the library's row-vectorised tables must reproduce bit for bit;
* ``g_entry`` and ``expansion_value`` - one structure constant, and the
  displaced-wave re-expansion of the resolvent summed at a point pair;
* ``standing_companion`` - the principal-value transform of a pair profile,
  one grid node at a time;
* ``spline_slopes_dense`` and ``pv_operator_dense`` - the PV operator's
  spline-slope matrix and the operator itself, built from dense (n x n)
  divided differences with full-row elimination and out-of-place
  products; the library's banded, in-place build must reproduce both bit
  for bit;
* ``structure_constants_full_sweep`` - the structure-constant matrix from
  every azimuthal pair (m, m'), skipping only those whose outgoing-wave
  column is zero, which the library's sweep over the live columns must
  reproduce bit for bit;
* ``rollnik_quad`` - the two Rollnik norms by adaptive quadrature
  (``scipy.integrate.quad``);
* ``zaxis_blocks`` and ``spectral_schatten4_per_k`` - the m-diagonal
  structure-constant blocks with R along z, and the spectral Schatten-4 norm
  at one k from them, with the library's stopping rule run for that k alone
  and each Gaunt table built at that k's own truncation;
* ``nu_fixed_rule`` - the spectral norm's Bessel moments nu_l(k) on a fixed
  Gauss rule per support segment, whatever the k;
* ``numerov_segment`` and ``phase_shift_scalar`` - one l's phase shift on
  the library's integration plan, built probe by probe and integrated one
  lattice value at a time, with the classical three-term Numerov
  recurrence or its summed form;
* ``onshell_chain`` and ``onshell_series_term`` - the eps -> 0 limit of a
  series term for non-overlapping muffin tins from on-shell data alone
  (phase shifts and structure constants), one path of centres at a time
  (Korringa 1947; Kohn and Rostoker 1954);
* ``offshell_table`` - the whole partial-wave t-matrix table on the grid
  plus k0 (``OffshellTable``) by one LU solve of the full collocation
  system, with its own Nystrom (eps > 0) and Haftel-Tabakin (eps = 0)
  weights; ``offshell_tables`` solves several eps from one V_l;
* ``grid_bound_states`` - the negative eigenvalues of the (n x n) grid
  Hamiltonian diag(q^2) + S V_l S, S = diag(sqrt(w) q), with V_l from
  ``vl_matrix``;
* ``factors_per_l`` - the separable factors V_l = B_l^T C_l B_l of the LS
  stage, one SVD and one Birman-Schwinger bound-state count per l,
  zero-padded to the largest rank one l at a time.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from multiscat.greens import (
    _SPECTRAL_DELTA_TARGET,
    _SPECTRAL_LMAX_CAP,
    _ball_grid,
    _g_block,
    _gaunt_integrals,
    _legendre_rule,
    _nu_weights,
    _outgoing_waves,
    _sigma4,
    structure_constants,
)
from multiscat.lippmann import ComplexEnergy, PoleProximityError, _radial_rule, vl_matrix
from multiscat.radial import _ACTION_KEEP, onshell_t_lm, phase_shift
from multiscat.specfun import (
    _check_l,
    _dirs_to_angles,
    bessel_derivative,
    bessel_j_table,
    bessel_y_table,
    gauss_legendre,
    gauss_panels,
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
    out = -np.exp(1j * np.sqrt(z.z) * r) / (4.0 * np.pi * r)
    return complex(out) if np.ndim(out) == 0 else out


def phi(pot, r):
    """Factor phi(r) of ``pot`` with phi^2 = V exactly; i*sqrt(|V|) where V < 0."""
    v = np.asarray(pot.evaluate(r), dtype=float)
    out = np.where(v >= 0, np.sqrt(np.clip(v, 0, None)) + 0j,
                   1j * np.sqrt(np.clip(-v, 0, None)))
    return out if out.ndim else complex(out)


def ktilde_kernel(j, h, z, x, y):
    """Two-center kernel phi_j(x) e^{i sqrt(z) r}/(4 pi i r) phi_h(y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rj = np.linalg.norm(x - j.center_array, axis=-1)
    rh = np.linalg.norm(y - h.center_array, axis=-1)
    r = np.linalg.norm(x - y, axis=-1)
    if np.any(r == 0):
        raise ValueError("ktilde_kernel is singular at x = y")
    out = (phi(j.potential, rj) * phi(h.potential, rh)
           * np.exp(1j * np.sqrt(z.z) * r) / (4.0j * np.pi * r))
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
    return (phi(j.potential, rj)[:, None] * phi(h.potential, rh)[None, :]
            * np.exp(1j * np.sqrt(z.z) * r) / (4.0j * np.pi * r))


def ktilde_slice_trig(sj, sh, k0, pj, wj, ph, wh):
    """sqrt(w_x |V_j|) e^{ikd}/(4 pi i d) sqrt(w_y |V_h|), complex, d capped as in ``_ktilde_matrix``.

    The h nodes lie at phi = 0; the phase is (sin kd - i cos kd)/(4 pi d)
    from ``np.sin`` and ``np.cos``.
    """
    amp_j = np.sqrt(wj * np.abs(sj.potential.evaluate(np.linalg.norm(pj - sj.center_array, axis=1))))
    amp_h = np.sqrt(wh * np.abs(sh.potential.evaluate(np.linalg.norm(ph - sh.center_array, axis=1))))
    cap_j = (2.0 / 3.0) * (3.0 * wj / (4.0 * np.pi)) ** (1.0 / 3.0)
    cap_h = (2.0 / 3.0) * (3.0 * wh / (4.0 * np.pi)) ** (1.0 / 3.0)
    d = np.sqrt(np.subtract.outer(pj[:, 0], ph[:, 0]) ** 2 + (pj[:, 1] ** 2)[:, None]
                + np.subtract.outer(pj[:, 2], ph[:, 2]) ** 2)
    d = np.maximum(d, np.maximum.outer(cap_j, cap_h))
    phase = np.sin(k0 * d) - 1j * np.cos(k0 * d)
    return np.outer(amp_j, amp_h) * phase / (4.0 * np.pi * d)


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
    c0 = c[sph_index(np.arange(2 * lmax + 1), 0), None]
    rule = _legendre_rule(lmax)
    return [_g_block([k], c0, _gaunt_integrals(m, m, rule), m, m)[0]
            for m in range(lmax + 1)]


def spectral_schatten4_per_k(pot_j, pot_h, k: float, R_len: float):
    """(value, delta, lmax) of the spectral Schatten-4 norm at one k, from zaxis_blocks.

    The stopping rule of the library's batched ``schatten4_norm_spectral``,
    run for this k alone: start at k r_max + 4 (k r_max + 1)^{1/3} + 6 l's
    and grow by 8 while the delta of the level 8 l's up (on twice the
    radial nodes) exceeds the target, up to the cap.  Every Gaunt table is
    built for this k and truncation alone.
    """
    ka = k * max(pot_j.effective_radius(), pot_h.effective_radius())
    lmax = min(int(ka + 4.0 * (ka + 1.0) ** (1.0 / 3.0)) + 6, _SPECTRAL_LMAX_CAP)
    while True:
        blocks = zaxis_blocks(k, R_len, lmax + 8)

        def total(lm, scale):
            root_j = np.sqrt(_nu_weights(pot_j, [k], lm, scale)[0])
            root_h = np.sqrt(_nu_weights(pot_h, [k], lm, scale)[0])
            return sum((1.0 if m == 0 else 2.0) * _sigma4(
                root_j[m:, None] * blocks[m][:lm - m + 1, :lm - m + 1] * root_h[None, m:])
                for m in range(lm + 1)) ** 0.25

        v1 = total(lmax, 1)
        v2 = total(lmax + 8, 2)
        delta = abs(v2 - v1) / max(abs(v2), 1e-300)
        if delta <= _SPECTRAL_DELTA_TARGET or lmax == _SPECTRAL_LMAX_CAP:
            return v2, delta, lmax
        lmax = min(lmax + 8, _SPECTRAL_LMAX_CAP)


def nu_fixed_rule(pot, ks, lmax: int, n_radial: int) -> np.ndarray:
    """nu_l(k) = integral of |V(r)| j_l(k r)^2 r^2 dr on a fixed Gauss rule.

    ``n_radial`` nodes per segment of ``pot.support_edges()``, whatever the
    k: shape ``(len(ks), lmax + 1)``, as ``greens._nu_weights``.
    """
    rs, ws = gauss_panels(pot.support_edges(), n_radial)
    ws = ws * rs ** 2 * np.abs(pot.evaluate(rs))
    J = bessel_j_table(lmax, np.multiply.outer(np.asarray(ks, dtype=float), rs))
    return ((J * J) @ ws).T


def gauss_legendre_weights_mp(n: int, x, dps: int = 40) -> list:
    """Gauss-Legendre weights at ``dps`` digits, one node at a time.

    Each double node x is polished by Newton steps on P_n from Bonnet's
    recurrence in mpmath, and its weight is 2 (1 - x^2) / (n (x P_n -
    P_{n-1}))^2 there.  Returns mpmath numbers.
    """
    import mpmath

    def legendre_pair(t):
        p_prev, p = mpmath.mpf(1), t
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
        return p, p_prev

    out = []
    with mpmath.workdps(dps):
        for xi in np.asarray(x, dtype=float):
            t = mpmath.mpf(float(xi))
            for _ in range(3):
                p, p_prev = legendre_pair(t)
                t -= p * (t * t - 1) / (n * (t * p - p_prev))
            p, p_prev = legendre_pair(t)
            out.append(2 * (1 - t * t) / (n * (t * p - p_prev)) ** 2)
    return out


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
    """The structure constant g_{lm;l'm'} of a ``structure_constants`` matrix."""
    return complex(g[sph_index(l, m), sph_index(lp, mp)])


def expansion_value(g, k0: float, R, lmax: int, x, y) -> complex:
    """Evaluate the displaced-wave expansion at coordinates (x, y).

    ``g`` is ``structure_constants(k0, R, lmax)``.  x is measured from the
    origin-center, y from the origin as well (the second center sits at
    R).  Raises ConvergenceRegionError outside |x| + |y - R| < |R|.
    """
    R = np.asarray(R, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(y, dtype=float) - R
    rx = float(np.linalg.norm(x))
    rv = float(np.linalg.norm(v))
    Rlen = float(np.linalg.norm(R))
    if rx + rv >= Rlen:
        raise ConvergenceRegionError(
            f"|x| + |y-R| = {rx + rv:.4g} >= |R| = {Rlen:.4g}: "
            "outside the expansion's convergence region")
    xa = ylm_table(lmax, x if rx > 0 else np.array([0.0, 0.0, 1.0]))
    ya = ylm_table(lmax, v if rv > 0 else np.array([0.0, 0.0, 1.0]))
    reps = 2 * np.arange(lmax + 1) + 1
    jx = np.repeat(bessel_j_table(lmax, k0 * rx), reps)
    jy = np.repeat(bessel_j_table(lmax, k0 * rv), reps)
    return complex((jx * xa) @ g @ (jy * np.conj(ya)))


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


def spline_slopes_dense(q):
    """Not-a-knot spline slope matrix D (D @ f = slopes at q), from the dense
    (n x n) matrix of divided differences, eliminated over whole rows."""
    n = q.size
    h = np.diff(q)
    delta = (np.eye(n, k=1) - np.eye(n))[:-1] / h[:, None]   # d = delta @ f
    lower = np.zeros(n)
    diag = np.empty(n)
    upper = np.zeros(n)
    B = np.empty((n, n))
    lower[1:-1] = h[1:]
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    upper[1:-1] = h[:-1]
    B[1:-1] = 3.0 * (h[1:, None] * delta[:-1] + h[:-1, None] * delta[1:])
    d = q[2] - q[0]
    diag[0], upper[0] = h[1], d
    B[0] = ((h[0] + 2.0 * d) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d
    d = q[-1] - q[-3]
    lower[-1], diag[-1] = d, h[-2]
    B[-1] = (h[-1] ** 2 * delta[-2] + (2.0 * d + h[-1]) * h[-2] * delta[-1]) / d
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        B[i] -= w * B[i - 1]
    B[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        B[i] -= upper[i] * B[i + 1]
        B[i] /= diag[i]
    return B


def pv_operator_dense(grid):
    """The PV operator M (M @ S = Sy) with out-of-place products on
    ``spline_slopes_dense``."""
    q = grid.nodes
    w = grid.weights
    P = grid.p_max
    den = np.subtract.outer(q * q, q * q)   # q_i^2 - k_j^2
    np.fill_diagonal(den, 1.0)
    K = w / den
    np.fill_diagonal(K, 0.0)
    diag = np.log((P + q) / (P - q)) / (2.0 * q) - K.sum(axis=1)
    K -= (w / (2.0 * q))[:, None] * spline_slopes_dense(q)
    K[np.diag_indices_from(K)] += diag
    return (2.0 / (np.pi * q))[:, None] * K * (q * q)


def structure_constants_full_sweep(k0: float, R, lmax: int) -> np.ndarray:
    """``structure_constants`` by a loop over every azimuthal pair (m, m')."""
    c = _outgoing_waves(k0, np.asarray(R, dtype=float), 2 * lmax)
    rule = _legendre_rule(lmax)
    g = np.zeros(((lmax + 1) ** 2, (lmax + 1) ** 2), dtype=complex)
    for m in range(-lmax, lmax + 1):
        rows = sph_index(np.arange(abs(m), lmax + 1), m)
        for mp in range(-lmax, lmax + 1):
            M = m - mp
            cM = c[sph_index(np.arange(abs(M), 2 * lmax + 1), M), None]
            if not np.any(cM):
                continue
            cols = sph_index(np.arange(abs(mp), lmax + 1), mp)
            g[np.ix_(rows, cols)] = _g_block([k0], cM, _gaunt_integrals(m, mp, rule),
                                             m, mp)[0]
    return g


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


# -- scalar Numerov phase shifts ---------------------------------------------

def _scalar_w(pot, l: int, k: float, a: float, b: float):
    """w(r) on [a, b], read a hair inside the ends."""
    eps = 1e-13 * max(1.0, b)
    lo, hi = a + eps, b - eps

    def w(r):
        r = np.clip(np.asarray(r, dtype=float), lo, hi)
        return l * (l + 1) / r ** 2 + pot.evaluate(r) - k * k

    return w


def numerov_segment(w, r_lo, r_hi, u, up, n, summed=False):
    """Numerov integration of u'' = w(r) u over [r_lo, r_hi] with n >= 8 steps.

    Starts from (u, u') at r_lo, takes the first lattice value from RK4 in
    8 substeps and returns (u, u') at r_hi, the derivative from the
    one-sided 5-point stencil; one lattice value at a time, renormalised
    whenever it grows past 1e120.  The recurrence is the classical
    c_{i+1} v_{i+1} = g_i v_i - c_{i-1} v_{i-1}, or with ``summed`` its
    summed form on the differences d_i = v_{i+1} - v_i (the library's),
    d_i = (q_i v_i + c_{i-1} d_{i-1}) / c_{i+1}, q_i = g_i - c_{i-1} - c_{i+1},
    with the stencil written on the d's.
    """
    h = (r_hi - r_lo) / n
    r = r_lo + h * np.arange(n + 1)
    wv = w(r)
    sub = 8
    hh = h / sub
    xs = np.empty(sub + 1)
    xs[0] = r_lo
    for s in range(sub):
        xs[s + 1] = xs[s] + hh
    ab = np.empty(2 * sub + 1)
    ab[0::2] = xs
    ab[1::2] = xs[:-1] + 0.5 * hh
    wb = w(ab)
    y0, y1, d0 = u, up, 0.0
    for s in range(sub):
        w0, wm, w1 = wb[2 * s], wb[2 * s + 1], wb[2 * s + 2]
        k1a, k1b = y1, w0 * y0
        k2a, k2b = y1 + 0.5 * hh * k1b, wm * (y0 + 0.5 * hh * k1a)
        k3a, k3b = y1 + 0.5 * hh * k2b, wm * (y0 + 0.5 * hh * k2a)
        k4a, k4b = y1 + hh * k3b, w1 * (y0 + hh * k3a)
        inc = (hh / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        y0 = y0 + inc
        d0 = d0 + inc
        y1 = y1 + (hh / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)

    if summed:
        c = 1.0 - (h * h / 12.0) * wv
        q = (h * h / 12.0) * (wv[:-2] + 10.0 * wv[1:-1] + wv[2:])   # q[i - 1] is q_i
        v = y0
        ds = np.empty(n)
        ds[0] = d0
        for i in range(1, n):
            ds[i] = (q[i - 1] * v + c[i - 1] * ds[i - 1]) / c[i + 1]
            v = v + ds[i]
            if abs(v) > 1e120:
                ds[: i + 1] /= abs(v)
                v /= abs(v)
        return v, (-3.0 * ds[n - 4] + 13.0 * ds[n - 3] - 23.0 * ds[n - 2]
                   + 25.0 * ds[n - 1]) / (12.0 * h)

    vals = np.empty(n + 1)
    vals[0], vals[1] = u, y0
    c = 1.0 - (h * h / 12.0) * wv
    g = 2.0 * (1.0 + 5.0 * h * h / 12.0 * wv)
    for i in range(1, n):
        nxt = (g[i] * vals[i] - c[i - 1] * vals[i - 1]) / c[i + 1]
        vals[i + 1] = nxt
        if abs(nxt) > 1e120:
            vals[: i + 2] /= abs(nxt)
    up_end = (3.0 * vals[n - 4] - 16.0 * vals[n - 3] + 36.0 * vals[n - 2]
              - 48.0 * vals[n - 1] + 25.0 * vals[n]) / (12.0 * h)
    return vals[n], up_end


def _scalar_plan(pot, l: int, k: float, r_match: float):
    """(bounds, r0, wkb_start) of one l, probe by probe."""
    r0 = min(1e-5 * max(pot.a, 1.0 / k), 1e-4)
    bps = sorted({b for b in pot.breakpoints() if r0 < b < r_match})
    bounds = []
    for a, b in zip([r0] + bps, bps + [r_match]):
        while b / a > 2.5:
            bounds.append((a, a * 2.0))
            a *= 2.0
        bounds.append((a, b))
    probes = []
    for a, b in bounds:
        xs = np.linspace(a, b, 129)
        wv = _scalar_w(pot, l, k, a, b)(xs)
        forbidden = bool(wv.min() > 0)
        sq = np.sqrt(np.clip(wv, 0.0, None))
        action = float(np.trapezoid(sq, xs)) if forbidden else 0.0
        probes.append((forbidden, action, xs, sq))
    start_idx, start_r = 0, None
    i = 0
    while i < len(bounds):
        if not probes[i][0]:
            i += 1
            continue
        j = i
        run_action = 0.0
        while j < len(bounds) and probes[j][0]:
            run_action += probes[j][1]
            j += 1
        if run_action > _ACTION_KEEP + 5.0:
            remaining = _ACTION_KEEP
            for kk in range(j - 1, i - 1, -1):
                if probes[kk][1] >= remaining:
                    xs, sq = probes[kk][2], probes[kk][3]
                    cum = np.concatenate([[0.0], np.cumsum((sq[1:] + sq[:-1]) * 0.5 * np.diff(xs))])
                    target = cum[-1] - remaining
                    idx = int(np.clip(np.searchsorted(cum, target), 1, len(xs) - 1))
                    c0, c1 = cum[idx - 1], cum[idx]
                    frac = 0.0 if c1 == c0 else (target - c0) / (c1 - c0)
                    start_idx = kk
                    start_r = float(xs[idx - 1] + frac * (xs[idx] - xs[idx - 1]))
                    break
                remaining -= probes[kk][1]
        i = j
    if start_r is not None:
        bounds[start_idx] = (start_r, bounds[start_idx][1])
    return [(a, b) for a, b in bounds[start_idx:] if b > a], r0, start_r is not None


def _scalar_steps(w, a: float, b: float, scale: float) -> int:
    wv = w(np.linspace(a, b, 33))
    s_osc = np.sqrt(max(-wv.min(), 0.0))
    s_grow = np.sqrt(max(wv.max(), 0.0))
    h = (b - a) / 16.0
    if s_osc > 0:
        h = min(h, 0.012 * scale / s_osc)
    if s_grow > 0:
        h = min(h, 0.04 * scale / s_grow)
    return max(int(np.ceil((b - a) / h)), 8)


def phase_shift_scalar(pot, l: int, k: float, r_match: float | None = None,
                       summed: bool = False) -> float:
    """eta_l(k) on the library's integration plan, built probe by probe,
    integrated segment by segment and lattice value by lattice value
    (``numerov_segment``, classical or ``summed``), at step scales 1 and
    1/2 with the same Richardson combination."""
    r_eff = pot.effective_radius()
    if r_match is None:
        r_match = max(1.05 * r_eff, r_eff + 0.5 / k, 1.0 / k)
    bounds, r0, wkb_start = _scalar_plan(pot, l, k, r_match)
    ws = [_scalar_w(pot, l, k, a, b) for a, b in bounds]
    plans = [[_scalar_steps(w, a, b, s) for w, (a, b) in zip(ws, bounds)] for s in (1.0, 0.5)]
    if wkb_start:
        u0, up0 = 1.0, float(np.sqrt(ws[0](bounds[0][0])))
    else:
        c2 = (pot.evaluate(r0) - k * k) / (2.0 * (2 * l + 3))
        u0 = 1.0
        up0 = (l + 1) / r0 + 2.0 * c2 * r0 / (1.0 + c2 * r0 * r0)
    x = k * r_match
    J, Y = bessel_j_table(max(l, 1), x), bessel_y_table(max(l, 1), x)
    jl, jlp = J[l], bessel_derivative(J, x)[l]
    yl, ylp = Y[l], bessel_derivative(Y, x)[l]
    rj, rjp = x * jl, jl + x * jlp
    ry, ryp = x * yl, yl + x * ylp

    def branch(eta):
        if eta > np.pi / 2:
            eta -= np.pi
        elif eta <= -np.pi / 2:
            eta += np.pi
        return float(eta)

    def integrate(steps):
        u, up = u0, up0
        for w, (a, b), n in zip(ws, bounds, steps):
            u, up = numerov_segment(w, a, b, u, up, n, summed)
            if abs(u) > 1e100 or abs(up) > 1e100:
                u, up = u / abs(u), up / abs(u)
        gamma = up / u
        return branch(np.arctan2(k * rjp - gamma * rj, k * ryp - gamma * ry))

    full, half = (integrate(steps) for steps in plans)
    d = half - full
    d = (d + np.pi / 2) % np.pi - np.pi / 2
    return branch(half + d / 15.0)


def onshell_chain(sc, path) -> complex:
    """On-shell KKR term of the scattering series along a path of centres.

    (2/pi) e^{-i k1.x_first + i k2.x_last} sum i^{-l} Y_lm(k1^) t_first
    [g(x_next - x_prev) t_next]... i^{l'} conj(Y_l'm'(k2^)) for the
    scatterer indices ``path`` of Scenario ``sc``, with
    g = structure_constants(k0, R, lmax) and t = onshell_t_lm of each
    centre's phase shifts.  For non-overlapping muffin tins it is the
    eps -> 0 limit of <k1| t_first R0 ... R0 t_last |k2>.
    """
    lmax = sc.numerics.lmax
    ls = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    x = [sc.scatterers[s].center_array for s in path]
    t = [onshell_t_lm(phase_shift(sc.scatterers[s].potential, range(lmax + 1), sc.k0),
                      sc.k0)[ls] for s in path]
    row = (1j) ** (-ls) * ylm_table(lmax, np.asarray(sc.dir_out)) * t[0]
    for prev, nxt, t_next in zip(x, x[1:], t[1:]):
        row = (row @ structure_constants(sc.k0, nxt - prev, lmax)) * t_next
    col = (1j) ** ls * np.conj(ylm_table(lmax, np.asarray(sc.dir_in)))
    phase = np.exp(-1j * np.dot(sc.k1, x[0]) + 1j * np.dot(sc.k2, x[-1]))
    return complex((2.0 / np.pi) * phase * (row @ col))


def onshell_series_term(sc, order: int) -> complex:
    """onshell_chain summed over every path of ``order`` centres with no repeated neighbour."""
    n = len(sc.scatterers)
    return sum(onshell_chain(sc, path) for path in itertools.product(range(n), repeat=order)
               if all(a != b for a, b in zip(path, path[1:])))


@dataclass
class OffshellTable:
    """t_l(p, p'; z) collocated on the grid nodes plus the on-shell point."""

    l: int
    z: ComplexEnergy
    momenta: np.ndarray              # grid nodes + [k0]
    values: np.ndarray = field(repr=False)
    on_shell_index: int = -1

    @property
    def on_shell(self) -> complex:
        return complex(self.values[self.on_shell_index, self.on_shell_index])

    def half_shell(self) -> np.ndarray:
        """t_l(q_i, k0; z) for all grid momenta (symmetric half-shell column)."""
        return self.values[:, self.on_shell_index]


def offshell_table(pot, l: int, z: ComplexEnergy, grid) -> OffshellTable:
    """Solve the partial-wave LS equation on the grid (plus on-shell point) for every column.

    eps > 0: straight Nystrom collocation.  eps = 0: Haftel-Tabakin
    on-shell subtraction with the analytic principal-value counter-term
    and the -i pi k0 / 2 half-residue.
    """
    return offshell_tables(pot, l, [z], grid)[0]


def offshell_tables(pot, l: int, zs, grid) -> list:
    """``offshell_table`` at every z in ``zs`` (one k0), from one V_l."""
    if any(abs(grid.k0 - z.k0) > 1e-12 for z in zs):
        raise ValueError("grid and energy disagree about k0")
    q = grid.nodes
    w = grid.weights
    k0 = zs[0].k0
    momenta = np.concatenate([q, [k0]])
    V = vl_matrix(pot, l, momenta)
    n = momenta.size
    tables = []
    for z in zs:
        coeff = np.zeros(n, dtype=complex)
        if z.eps > 0:
            coeff[:-1] = w * q * q / (z.z - q * q)
        else:
            coeff[:-1] = w * q * q / (k0 * k0 - q * q)
            log_term = np.log((grid.p_max + k0) / (grid.p_max - k0)) / (2.0 * k0)
            coeff[-1] = (k0 * k0 * (log_term - np.sum(w / (k0 * k0 - q * q)))
                         - 0.5j * np.pi * k0)

        A = np.eye(n, dtype=complex) - V * coeff[None, :]
        try:
            T = np.linalg.solve(A, V.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise PoleProximityError(f"LS system singular at z={z.z}: {exc}") from exc
        resid = np.max(np.abs(A @ T - V)) / max(np.max(np.abs(V)), 1e-300)
        if resid > 1e-8:
            raise PoleProximityError(
                f"LS solve ill-conditioned at z={z.z} (residual {resid:.2e}); "
                "z may sit near a bound-state pole")
        tables.append(OffshellTable(l=l, z=z, momenta=momenta, values=T))
    return tables


def grid_bound_states(pot, l: int, grid) -> int:
    """Negative eigenvalues of H = diag(q^2) + S V_l S on the grid, S = diag(sqrt(w) q)."""
    q = grid.nodes
    S = np.sqrt(grid.weights) * q
    H = S[:, None] * vl_matrix(pot, l, q) * S
    H[np.diag_indices_from(H)] += q * q
    return int(np.sum(np.linalg.eigvalsh(H) < 0))


def _birman_schwinger_count(B, C, grid) -> int:
    """Eigenvalues below -1 of the (k x k) R^T C R, R R^T = M M^T, M = B_g diag(sqrt(w));
    of the (n x n) M^T C M where B_g is rank-deficient (k = n + 1)."""
    M = B[:, :-1] * np.sqrt(grid.weights)
    if M.shape[0] <= M.shape[1]:
        try:
            M = np.linalg.cholesky(M @ M.T)
        except np.linalg.LinAlgError:
            pass
    return int(np.sum(np.linalg.eigvalsh(M.T @ C @ M) < -1.0))


def factors_per_l(pot, lmax: int, grid) -> tuple:
    """(B, C, rank, bound_states) of V_l = B_l^T C_l B_l, one l at a time.

    M_l = diag(sqrt|c|) J_l on the library's radial rule, one SVD
    M_l = U S W^T per l cut at numpy's ``matrix_rank`` tolerance to k_l
    values, B_l = S W^T and C_l = U^T diag(sign c) U, each np.pad-ded to
    the largest k_l.
    """
    momenta = np.concatenate([grid.nodes, [grid.k0]])
    rs, c = _radial_rule(pot, float(momenta.max()), 1)
    root, sign = np.sqrt(np.abs(c)), np.sign(c)
    factors = []
    for Jl in bessel_j_table(lmax, np.outer(rs, momenta)):
        M = root[:, None] * Jl
        U, s, Wt = np.linalg.svd(M, full_matrices=False)
        k = int(np.sum(s > s[0] * max(M.shape) * np.finfo(float).eps))
        U = U[:, :k]
        factors.append((s[:k, None] * Wt[:k], (U.T * sign) @ U))
    rank = tuple(len(B) for B, _ in factors)
    bound = tuple(_birman_schwinger_count(B, C, grid) for B, C in factors)
    pad = [max(rank) - k for k in rank]
    return (np.array([np.pad(B, ((0, p), (0, 0))) for (B, _), p in zip(factors, pad)]),
            np.array([np.pad(C, (0, p)) for (_, C), p in zip(factors, pad)]), rank, bound)
