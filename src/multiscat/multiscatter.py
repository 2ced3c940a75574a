"""Two-center multiple-scattering objects and the on-shell verification runs.

The central quantity is the pair term of the multiple-scattering series
with an alpha-phase insertion,

    X_alpha(z) = <k1| t_j(z) e^{i alpha sqrt(H0)} R0(z) t_h(z) |k2>,
    |k1| = |k2| = k0,  z = k0^2 + i eps,

evaluated as a genuinely off-shell intermediate-momentum integral

    X_alpha = int d^3k  [alpha-weight] (z - k^2)^{-1}
              <k1|t_j(z)|k> <k|t_h(z)|k2>,

with half-shell t-matrix elements from the Lippmann-Schwinger solver.  The
alpha weight is applied on the analytic continuation of the integrand:
e^{i alpha q} on the outgoing component of the free propagation between
the centers, e^{-i alpha q} on its incoming mirror (for alpha = 0 the
insertion is absent and nothing depends on this choice).  The object so
defined obeys the exact phase law X_alpha = e^{i alpha sqrt(z)} X_0, so
Y_alpha = e^{-i alpha k0} X_alpha becomes alpha-independent as eps -> 0:
only on-shell single-scatterer input survives.  For two non-overlapping
spherical scatterers the same limit is computable from on-shell data alone
(phase shifts plus structure constants), and the engine compares the two
routes numerically.

Everything here uses the plane-wave convention <x|k> = (2 pi)^{-3/2}
e^{i k.x}; the resulting structure-constant form of the pair term is

    X_0(k0^2+i0) = (2/pi) e^{-i k1.x_j} e^{i k2.x_h}
        sum_{lm,l'm'} i^{l'-l} Y_lm(k1^) conj(Y_l'm'(k2^))
        g_{lm;l'm'}(k0, x_h - x_j) t_lm(k0) t_l'm'(k0),

with t_lm(k0) = -sin(eta_l) e^{i eta_l}/k0 from the radial solver.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_legendre, spherical_jn

from multiscat.greens import (
    ComplexEnergy,
    KtildeDiscretization,
    schatten4_decay_diagnostic,
    schatten4_norm,
    schatten4_norm_spectral,
    structure_constants,
)
from multiscat.lippmann import MomentumGrid, OffshellTable, solve_offshell_t
from multiscat.potentials import pair_gap, rollnik_check
from multiscat.radial import onshell_t_lm, phase_shift
from multiscat.specfun import AngularGrid, sph_index, ylm_table


class TailEstimateError(RuntimeError):
    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


class ExtrapolationError(RuntimeError):
    def __init__(self, msg, samples=None):
        super().__init__(msg)
        self.samples = samples


def eps_extrapolate(samples: dict) -> tuple[complex, float]:
    """Richardson/Neville extrapolation of eps -> complex samples to eps = 0.

    Needs >= 3 samples at (roughly geometrically) decreasing eps.  Returns
    (limit, error) with the error taken as the difference between the last
    two extrapolation levels.
    """
    if len(samples) < 3:
        raise ExtrapolationError("need at least 3 eps samples", samples=samples)
    eps = np.array(sorted(samples.keys(), reverse=True), dtype=float)
    if np.any(eps <= 0):
        raise ExtrapolationError("eps samples must be positive", samples=samples)
    ratios = eps[:-1] / eps[1:]
    if np.any(ratios < 1.2):
        raise ExtrapolationError(
            "eps samples must decrease geometrically", samples=samples)
    f = np.array([samples[e] for e in eps], dtype=complex)
    n = eps.size
    tableau = [f]
    for j in range(1, n):
        prev = tableau[-1]
        cur = np.empty(n - j, dtype=complex)
        for i in range(n - j):
            cur[i] = (eps[i] * prev[i + 1] - eps[i + j] * prev[i]) / (eps[i] - eps[i + j])
        tableau.append(cur)
    limit = complex(tableau[-1][0])
    err = abs(tableau[-1][0] - tableau[-2][-1])
    return limit, float(err)


@dataclass(frozen=True)
class Numerics:
    """Grid orders and tolerances for a scenario run (all fields echoed)."""

    lmax: int = 8
    eps_list: tuple = ()          # defaults to (0.2, 0.1, 0.05, 0.025) * k0^2
    alpha_list: tuple = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    p_max: float | None = None
    n_inner: int = 64
    n_mid: int = 48
    n_outer: int | None = None
    n_max: int = 2
    tail_tol: float = 0.05
    schatten_radial: int = 14
    schatten_order: int = 10
    tolerances: dict = field(default_factory=lambda: {
        "onshell_equivalence": 1e-3,
        "phase_law": 1e-3,
        "alpha_flatness": 1e-2,
        "born2_identity": 1e-6,
        "y_average": 1e-3,
    })


@dataclass(frozen=True)
class Scenario:
    """Scatterer arrangement plus on-shell kinematics.

    The on-shell constraint is built in: only directions and a single k0
    are stored, so k1 = k0*dir_out and k2 = k0*dir_in always have equal
    magnitude.
    """

    scatterers: tuple
    k0: float
    dir_in: tuple = (0.0, 0.0, 1.0)
    dir_out: tuple = (0.0, 0.0, 1.0)
    numerics: Numerics = field(default_factory=Numerics)

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if len(self.scatterers) < 1:
            raise ValueError("need at least one scatterer")
        for name in ("dir_in", "dir_out"):
            v = np.asarray(getattr(self, name), dtype=float)
            n = np.linalg.norm(v)
            if n == 0:
                raise ValueError(f"{name} must be a nonzero direction")
            object.__setattr__(self, name, tuple(v / n))
        object.__setattr__(self, "scatterers", tuple(self.scatterers))

    @property
    def k1(self) -> np.ndarray:
        return self.k0 * np.asarray(self.dir_out)

    @property
    def k2(self) -> np.ndarray:
        return self.k0 * np.asarray(self.dir_in)

    def eps_sequence(self) -> tuple:
        if self.numerics.eps_list:
            return tuple(self.numerics.eps_list)
        return tuple(f * self.k0 ** 2 for f in (0.2, 0.1, 0.05, 0.025))


def default_p_max(scenario: Scenario) -> float:
    """Momentum cutoff: generous for sharp-edged potentials, tighter for soft."""
    p = 6.0 * scenario.k0
    for s in scenario.scatterers:
        pot = s.potential
        if pot.kind == "gaussian":
            p = max(p, scenario.k0 + 12.0 / pot.a)
        else:
            p = max(p, 40.0 / pot.a)
    return p


class ScenarioEngine:
    """Caches per-scenario tables and evaluates the verification operations.

    All heavy inputs (off-shell tables, pair geometry matrices, phase
    shifts, structure constants) are computed once and reused across the
    (alpha, eps) work items; the items themselves are pure functions of
    those tables, so threading over them cannot change results.
    """

    def __init__(self, scenario: Scenario, threads: int = 1):
        self.sc = scenario
        self.threads = max(1, int(threads))
        num = scenario.numerics
        self.p_max = num.p_max or default_p_max(scenario)
        centers = [s.center_array for s in scenario.scatterers]
        self.max_sep = max((np.linalg.norm(a - b) for a in centers for b in centers),
                           default=0.0)
        osc = self.max_sep + (max(num.alpha_list) if num.alpha_list else 0.0) + 2.0
        self.grid = MomentumGrid.build(scenario.k0, self.p_max, n_inner=num.n_inner,
                                       n_mid=num.n_mid, n_outer=num.n_outer,
                                       osc_scale=osc)
        self._tables: dict = {}
        self._geometry: dict = {}
        self._profiles: dict = {}
        self._eta: dict = {}
        self._ang = None

    # -- cached inputs ------------------------------------------------------

    def offshell(self, j: int, l: int, eps: float) -> OffshellTable:
        pot = self.sc.scatterers[j].potential
        key = (pot, l, float(eps))
        if key not in self._tables:
            self._tables[key] = solve_offshell_t(
                pot, l, ComplexEnergy(self.sc.k0, eps), self.grid)
        return self._tables[key]

    def eta(self, j: int, l: int) -> float:
        pot = self.sc.scatterers[j].potential
        key = (pot, l)
        if key not in self._eta:
            self._eta[key] = phase_shift(pot, l, self.sc.k0)
        return self._eta[key]

    def angular_grid(self) -> AngularGrid:
        """The engine's one angular rule, exact to degree 4*lmax + 8.

        Every angular integral of the engine has, once its plane waves are
        truncated at L = 2*lmax, a polynomial integrand of degree at most
        4*lmax (see geometry and _born3); the 8 extra degrees are margin.
        """
        if self._ang is None:
            self._ang = AngularGrid.for_degree(4 * self.sc.numerics.lmax + 8)
        return self._ang

    def _plane_wave(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rayleigh expansion of e^{i q k^.D}, truncated at L = 2*lmax.

        Returns ``(PL, wave)`` with PL[L, a] = P_L(k^_a.D^) on the angular
        rule and wave[L, i] = i^L (2L+1) j_L(q_i |D|) on the momentum grid,
        so e^{i q_i k^_a.D} = sum_L wave[L, i] PL[L, a] against any spherical
        polynomial of degree <= 2*lmax.  For |D| = 0 only L = 0 survives
        (j_L(0) = delta_L0), so any axis is valid and the z axis is used.
        """
        D_len = float(np.linalg.norm(D))
        axis = D / D_len if D_len > 0 else np.array([0.0, 0.0, 1.0])
        u = self.angular_grid().nodes @ axis
        x = self.grid.nodes * D_len
        Ls = range(2 * self.sc.numerics.lmax + 1)
        PL = np.stack([eval_legendre(L, u) for L in Ls])
        wave = np.stack([(1j) ** L * (2 * L + 1) * spherical_jn(L, x) for L in Ls])
        return PL, wave

    def geometry(self, pair: tuple[int, int]):
        """Triple-Legendre couplings for the pair's intermediate-momentum sums.

        Returns ``(G, wave)`` with G[L, l, l'] the exact angular integral of
        P_L(k^.D^) P_l(k^.k1^) P_l'(k^.k2^) and ``wave`` the radial factors of
        the plane wave between the centers (see _plane_wave).  G vanishes for
        L > l + l', so the two-center expansion truncates exactly at 2*lmax.
        """
        if pair in self._geometry:
            return self._geometry[pair]
        j, h = pair
        PL, wave = self._plane_wave(self.sc.scatterers[j].center_array
                                    - self.sc.scatterers[h].center_array)
        lmax = self.sc.numerics.lmax
        ang = self.angular_grid()
        c1 = ang.nodes @ np.asarray(self.sc.dir_out)
        c2 = ang.nodes @ np.asarray(self.sc.dir_in)
        P1 = np.stack([eval_legendre(l, c1) for l in range(lmax + 1)])
        P2 = np.stack([eval_legendre(l, c2) for l in range(lmax + 1)])
        G = np.einsum("La,la,pa,a->Llp", PL, P1, P2, ang.weights, optimize=True)
        # enforce the exact triangle selection rule: quadrature roundoff in
        # forbidden entries would otherwise couple to huge y_L values at
        # small q
        Ls = np.arange(2 * lmax + 1)[:, None, None]
        ls = np.arange(lmax + 1)[None, :, None]
        ps = np.arange(lmax + 1)[None, None, :]
        G[(Ls > ls + ps) | (Ls < np.abs(ls - ps))] = 0.0
        self._geometry[pair] = (G, wave)
        return self._geometry[pair]

    def _pair_profile(self, pair: tuple[int, int], eps: float):
        """Angular-reduced pair integrand S(q) and its standing-wave companion.

        S(q) is the angular average of <k1|t_j(z)|k><k|t_h(z)|k2> (phases
        stripped) over directions of the intermediate momentum, i.e. the
        sandwich of the two half-shell amplitudes through the regular
        radial wave j_0(q|x-y|).  Sy(q) is the same sandwich through the
        irregular wave y_0(q|x-y|), obtained from S by the principal-value
        identity y_0(q r) = (2/(pi q)) PV int dk k^2 j_0(k r)/(q^2 - k^2):
        a Hilbert-type transform on the momentum grid, valid for any
        geometry including overlapping supports.
        """
        key = (pair, float(eps))
        if key in self._profiles:
            return self._profiles[key]
        j, h = pair
        lmax = self.sc.numerics.lmax
        G, wave = self.geometry(pair)
        A = np.einsum("Llp,Li->lpi", G, wave, optimize=True)
        tj = np.stack([self.offshell(j, l, eps).half_shell()[:-1]
                       for l in range(lmax + 1)])
        th = np.stack([self.offshell(h, l, eps).half_shell()[:-1]
                       for l in range(lmax + 1)])
        c = (2 * np.arange(lmax + 1) + 1) / (4.0 * np.pi)
        S = np.einsum("l,p,li,pi,lpi->i", c, c, tj, th, A, optimize=True)
        Sy = self._standing_companion(S)
        self._profiles[key] = (S, Sy)
        return S, Sy

    def _standing_companion(self, S: np.ndarray) -> np.ndarray:
        """PV transform Sy(q) = (2/(pi q)) PV int dk k^2 S(k)/(q^2 - k^2)."""
        from scipy.interpolate import CubicSpline
        q = self.grid.nodes
        w = self.grid.weights
        P = self.grid.p_max
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

    # -- operations ---------------------------------------------------------

    def t_elem(self, j: int, eps: float, k1, k2) -> complex:
        """<k1|t_j(z)|k2> for momenta whose magnitudes sit on the table grid."""
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        p1, p2 = np.linalg.norm(k1), np.linalg.norm(k2)
        lmax = self.sc.numerics.lmax
        tab0 = self.offshell(j, 0, eps)
        i1 = _momentum_index(tab0.momenta, p1)
        i2 = _momentum_index(tab0.momenta, p2)
        cang = float(np.dot(k1, k2) / (p1 * p2))
        phase = np.exp(-1j * np.dot(k1 - k2, self.sc.scatterers[j].center_array))
        total = 0.0 + 0.0j
        for l in range(lmax + 1):
            tl = self.offshell(j, l, eps).values[i1, i2]
            total += (2 * l + 1) / (4.0 * np.pi) * eval_legendre(l, cang) * tl
        return complex(phase * total)

    def x_alpha(self, alpha: float, eps: float, pair: tuple[int, int] = (0, 1),
                check_tail: bool = True) -> complex:
        """Pair term X_alpha(z) by intermediate-momentum quadrature.

        The integrand uses genuinely off-shell half-shell t-matrix columns;
        the alpha insertion carries the branch-continued phase (see
        _alpha_kernel), under which X_alpha = e^{i alpha sqrt(z)} X_0 up to
        quadrature error.  alpha = 0 is the plain pair term of the
        multiple-scattering series.
        """
        if eps <= 0:
            raise ValueError("x_alpha needs eps > 0; use eps_extrapolate for the limit")
        j, h = pair
        if j == h:
            raise ValueError("pair term needs two distinct scatterers")
        sc = self.sc
        z = complex(sc.k0 ** 2, eps)
        q = self.grid.nodes
        w = self.grid.weights
        S, Sy = self._pair_profile(pair, eps)
        # branch-continued alpha phase: e^{i alpha q} on the outgoing and
        # e^{-i alpha q} on the incoming half of the free propagation
        weighted = S * np.cos(alpha * q) - Sy * np.sin(alpha * q)
        radial = w * q * q / (z - q * q)
        contrib = radial * weighted
        phase = np.exp(-1j * np.dot(sc.k1, sc.scatterers[j].center_array)
                       + 1j * np.dot(sc.k2, sc.scatterers[h].center_array))
        total = complex(phase * np.sum(contrib))
        if check_tail:
            est = _tail_estimate(q, contrib)
            if est > sc.numerics.tail_tol * max(abs(total), 1e-300):
                raise TailEstimateError(
                    f"momentum-tail estimate {est:.3e} exceeds "
                    f"{sc.numerics.tail_tol:.1e} * |X| = "
                    f"{sc.numerics.tail_tol * abs(total):.3e}; increase p_max",
                    estimate=est)
        return total

    def y_alpha(self, alpha: float, eps: float, pair: tuple[int, int] = (0, 1)) -> complex:
        return complex(np.exp(-1j * alpha * self.sc.k0)
                       * self.x_alpha(alpha, eps, pair))

    def x0_structconst(self, pair: tuple[int, int] = (0, 1),
                       lmax: int | None = None) -> tuple[complex, float]:
        """On-shell-only evaluation of X_0(k0^2 + i0) for two muffin tins.

        Returns (value, truncation_delta).  Hard precondition: the two
        effective supports must not overlap (the re-expansion behind the
        formula has no meaning otherwise).
        """
        sc = self.sc
        j, h = pair
        sj, sh = sc.scatterers[j], sc.scatterers[h]
        gap = pair_gap(sj, sh)
        if gap <= 0:
            raise ValueError(
                f"x0_structconst requires non-overlapping supports (gap {gap:.4g})")
        lmax = sc.numerics.lmax if lmax is None else lmax
        R = sh.center_array - sj.center_array
        g = structure_constants(sc.k0, R, lmax)
        y1 = ylm_table(lmax, np.asarray(sc.dir_out))
        y2c = np.conj(ylm_table(lmax, np.asarray(sc.dir_in)))
        ls = np.concatenate([[l] * (2 * l + 1) for l in range(lmax + 1)]).astype(int)
        tj = np.array([onshell_t_lm(self.eta(j, l), sc.k0) for l in range(lmax + 1)])
        th = np.array([onshell_t_lm(self.eta(h, l), sc.k0) for l in range(lmax + 1)])
        left = (1j) ** (-ls) * y1 * tj[ls]
        right = (1j) ** ls * y2c * th[ls]
        phase = np.exp(-1j * np.dot(sc.k1, sj.center_array)
                       + 1j * np.dot(sc.k2, sh.center_array))
        pref = (2.0 / np.pi) * phase
        total = complex(pref * (left @ g.matrix @ right))
        inner = (lmax + 1) ** 2 - (2 * lmax + 1)   # drop the top-l shell
        partial = complex(pref * (left[:inner] @ g.matrix[:inner, :inner] @ right[:inner]))
        delta = abs(total - partial) / max(abs(total), 1e-300)
        return total, delta

    def born_term(self, order: int, eps: float) -> complex:
        """Order-n term of the multiple-scattering series at z = k0^2 + i eps."""
        sc = self.sc
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > sc.numerics.n_max:
            raise ValueError(
                f"order {order} exceeds configured n_max = {sc.numerics.n_max}")
        n = len(sc.scatterers)
        if order == 1:
            return complex(sum(self.t_elem(j, eps, sc.k1, sc.k2) for j in range(n)))
        if order == 2:
            return complex(sum(self.x_alpha(0.0, eps, (j, h))
                               for j in range(n) for h in range(n) if j != h))
        if order == 3:
            return complex(sum(self._born3(j, h, k, eps)
                               for j in range(n) for h in range(n) for k in range(n)
                               if j != h and h != k))
        raise ValueError("orders above 3 are not implemented")

    def _born3(self, j: int, h: int, k: int, eps: float) -> complex:
        """Third-order term <k1|t_j R0 t_h R0 t_k|k2> at z = k0^2 + i eps.

        Both free propagations are projected onto partial waves (l, m) about
        scatterer h (see _projection); the t_h table then couples them l by
        l.  Each projection integrates e^{i q k^.D} Y_lm(k^) P_l'(k^.k^_ext)
        over directions k^.  The Rayleigh expansion
        e^{i q k^.D} = sum_L i^L (2L+1) j_L(q|D|) P_L(k^.D^) makes this exact
        at L <= 2*lmax: Y_lm P_l' is a spherical polynomial of degree at most
        2*lmax, to which every P_L with L > 2*lmax is orthogonal.  What is
        left has degree at most 4*lmax, which angular_grid integrates
        exactly, with no dependence on q*|D|.
        """
        sc = self.sc
        z = complex(sc.k0 ** 2, eps)
        lmax = sc.numerics.lmax
        q = self.grid.nodes
        w = self.grid.weights
        ang = self.angular_grid()
        Yw = ylm_table(lmax, ang.nodes) * ang.weights
        centers = [s.center_array for s in sc.scatterers]
        denom = w * q * q / (z - q * q)
        A = self._projection(Yw, j, centers[j] - centers[h], sc.dir_out, eps) * denom
        B = self._projection(np.conj(Yw), k, centers[h] - centers[k], sc.dir_in,
                             eps) * denom
        total = 0.0 + 0.0j
        for l in range(lmax + 1):
            th = self.offshell(h, l, eps).values[:-1, :-1]
            block = slice(sph_index(l, -l), sph_index(l, l) + 1)
            total += (4.0 * np.pi / (2 * l + 1)) * np.sum((A[block] @ th) * B[block])
        phase = np.exp(-1j * np.dot(sc.k1, centers[j])
                       + 1j * np.dot(sc.k2, centers[k]))
        return complex(phase * total)

    def _projection(self, Yw: np.ndarray, s: int, D: np.ndarray, direction,
                    eps: float) -> np.ndarray:
        """(nlm, nq) array sum_a Yw[:, a] e^{i q k^_a.D} T_s(k^_a, q).

        T_s(k^, q) = sum_l (2l+1)/(4 pi) P_l(k^.direction) t_l(q, k0) is the
        half-shell amplitude of scatterer s; the plane wave enters through
        its Rayleigh expansion truncated at L = 2*lmax (exact, see _born3).
        """
        lmax = self.sc.numerics.lmax
        ang = self.angular_grid()
        PL, wave = self._plane_wave(D)
        c = ang.nodes @ np.asarray(direction)
        P = np.stack([eval_legendre(l, c) for l in range(lmax + 1)])
        cl = (2 * np.arange(lmax + 1) + 1) / (4.0 * np.pi)
        t = np.stack([cl[l] * self.offshell(s, l, eps).half_shell()[:-1]
                      for l in range(lmax + 1)])
        # sum over (L, l') as one matrix product on each side
        angular = (PL[:, None, :] * P[None, :, :]).reshape(-1, ang.size)
        radial = (wave[:, None, :] * t[None, :, :]).reshape(-1, wave.shape[1])
        return (Yw @ angular.T) @ radial

    # -- the full experiment -------------------------------------------------

    def verify(self) -> "VerificationReport":
        return run_verification(self)


def _momentum_index(momenta: np.ndarray, p: float) -> int:
    idx = int(np.argmin(np.abs(momenta - p)))
    if abs(momenta[idx] - p) > 1e-9 * max(p, 1.0):
        raise ValueError(
            f"momentum {p} is not on the table grid; t_elem only supports "
            "the on-shell point and grid nodes")
    return idx


def _tail_estimate(q: np.ndarray, contrib: np.ndarray) -> float:
    """Crude geometric-decay bound on the neglected q > p_max tail."""
    qr = q[-1] - q[0]
    last = np.abs(np.sum(contrib[q > q[-1] - qr / 8]))
    prev = np.abs(np.sum(contrib[(q > q[-1] - qr / 4) & (q <= q[-1] - qr / 8)]))
    r = min(last / max(prev, 1e-300), 0.9)
    return float(last * r / (1.0 - r))


@dataclass
class VerificationReport:
    scenario: dict
    x0_direct: complex
    x0_direct_error: float
    x0_structconst: complex | None
    structconst_truncation: float | None
    onshell_rel_diff: float | None
    x_alpha_extrapolated: dict
    x_alpha_by_eps: dict
    y_alpha_samples: dict
    alpha_flatness: float
    phase_law_residuals: dict
    y_average: complex
    y_average_rel_diff: float
    born_terms: list
    born2_identity_rel: float | None
    schatten: dict
    diagnostics: dict
    comparisons: list
    passed: bool

    def to_json_dict(self) -> dict:
        return _jsonify(self.__dict__)


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return None
    return obj


def run_verification(engine: ScenarioEngine) -> VerificationReport:
    sc = engine.sc
    num = sc.numerics
    eps_seq = sc.eps_sequence()
    alphas = tuple(num.alpha_list)
    n_scat = len(sc.scatterers)

    diagnostics = {
        "momentum_nodes": int(engine.grid.size),
        "p_max": float(engine.p_max),
        "rollnik": [],
        "pair_gap": None,
    }
    for s in sc.scatterers:
        rd = rollnik_check(s.potential)
        diagnostics["rollnik"].append({
            "kind": s.potential.kind, "l1_norm": rd.l1_norm,
            "l2_norm": rd.l2_norm, "admissible": rd.admissible})

    comparisons = []

    def compare(name, value, tol):
        ok = bool(value < tol)
        comparisons.append({"name": name, "value": float(value),
                            "tolerance": float(tol), "passed": ok})
        return ok

    if n_scat == 1:
        b1 = engine.born_term(1, min(eps_seq))
        report = VerificationReport(
            scenario=_scenario_echo(engine), x0_direct=0j, x0_direct_error=0.0,
            x0_structconst=None, structconst_truncation=None, onshell_rel_diff=None,
            x_alpha_extrapolated={}, x_alpha_by_eps={}, y_alpha_samples={},
            alpha_flatness=0.0, phase_law_residuals={}, y_average=0j,
            y_average_rel_diff=0.0, born_terms=[b1], born2_identity_rel=None,
            schatten={}, diagnostics=diagnostics, comparisons=[], passed=True)
        return report

    gap = pair_gap(sc.scatterers[0], sc.scatterers[1])
    diagnostics["pair_gap"] = float(gap)
    overlapping = gap <= 0

    # X_alpha over the (alpha, eps) lattice, threaded over work items
    if not alphas:
        alphas = (0.0,)
    items = [(a, e) for a in alphas for e in eps_seq]

    def work(item):
        a, e = item
        return engine.x_alpha(a, e)

    if engine.threads > 1:
        with ThreadPoolExecutor(max_workers=engine.threads) as pool:
            values = dict(zip(items, pool.map(work, items)))
    else:
        values = {it: work(it) for it in items}

    x_by_eps = {a: {e: values[(a, e)] for e in eps_seq} for a in alphas}
    x_extrap, x_err = {}, {}
    for a in alphas:
        lim, err = eps_extrapolate(x_by_eps[a])
        x_extrap[a] = lim
        x_err[a] = err

    if 0.0 not in x_extrap:
        lim, err = eps_extrapolate({e: engine.x_alpha(0.0, e) for e in eps_seq})
        x_extrap[0.0] = lim
        x_err[0.0] = err
    x0 = x_extrap[0.0]

    y_samples = {a: complex(np.exp(-1j * a * sc.k0) * x_extrap[a]) for a in alphas}
    flat = max((abs(y_samples[a] - x0) for a in alphas), default=0.0) / abs(x0)

    phase_res = {}
    for a in alphas:
        if a == 0.0:
            continue
        arg = np.angle(x_extrap[a] / x0)
        d = (arg - a * sc.k0 + np.pi) % (2.0 * np.pi) - np.pi
        phase_res[a] = float(abs(d))

    # trapezoid alpha-average of Y over [alpha_min, alpha_max]
    a_arr = np.array(sorted(y_samples))
    if a_arr.size >= 2:
        y_arr = np.array([y_samples[a] for a in a_arr])
        y_avg = complex(np.trapezoid(y_arr, a_arr) / (a_arr[-1] - a_arr[0]))
    else:
        y_avg = x0
    y_avg_rel = abs(y_avg - x0) / abs(x0)

    x0_sc, trunc, onshell_rel = None, None, None
    if not overlapping and n_scat == 2:
        x0_sc, trunc = engine.x0_structconst()
        onshell_rel = abs(x0_sc - x0) / abs(x0_sc)

    born = [engine.born_term(1, min(eps_seq)), engine.born_term(2, min(eps_seq))]
    if num.n_max >= 3:
        born.append(engine.born_term(3, min(eps_seq)))
    pair_sum = sum(engine.x_alpha(0.0, min(eps_seq), (j, h))
                   for j in range(n_scat) for h in range(n_scat) if j != h)
    born2_rel = abs(born[1] - pair_sum) / max(abs(born[1]), 1e-300)

    if overlapping:
        K = KtildeDiscretization.build(
            sc.scatterers[0], sc.scatterers[1], ComplexEnergy(sc.k0, 0.0),
            n_radial=num.schatten_radial, angular_order=num.schatten_order)
        s_val, s_delta = schatten4_norm(K)
        schatten = {"method": "grid", "value": float(s_val),
                    "refinement_delta": float(s_delta)}
    else:
        R_len = float(np.linalg.norm(sc.scatterers[1].center_array
                                     - sc.scatterers[0].center_array))
        s_val, s_delta = schatten4_norm_spectral(
            sc.scatterers[0].potential, sc.scatterers[1].potential, sc.k0, R_len)
        schatten = {"method": "spectral", "value": float(s_val),
                    "refinement_delta": float(s_delta)}
        # truncated-integral decay diagnostic (report-only; the tail beyond
        # the sampled k-range is not computable at desk scale)
        schatten["decay_diagnostic"] = schatten4_decay_diagnostic(
            sc.scatterers[0].potential, sc.scatterers[1].potential, R_len,
            [0.5 * sc.k0, sc.k0, 2.0 * sc.k0, 3.0 * sc.k0])

    tol = num.tolerances
    if onshell_rel is not None:
        compare("onshell_equivalence", onshell_rel, tol["onshell_equivalence"])
        if phase_res:
            compare("phase_law", max(phase_res.values()), tol["phase_law"])
    compare("alpha_flatness", flat, tol["alpha_flatness"])
    compare("y_average", y_avg_rel, tol["y_average"])
    compare("born2_identity", born2_rel, tol["born2_identity"])

    return VerificationReport(
        scenario=_scenario_echo(engine),
        x0_direct=x0,
        x0_direct_error=float(x_err[0.0]),
        x0_structconst=x0_sc,
        structconst_truncation=trunc,
        onshell_rel_diff=onshell_rel,
        x_alpha_extrapolated=x_extrap,
        x_alpha_by_eps=x_by_eps,
        y_alpha_samples=y_samples,
        alpha_flatness=float(flat),
        phase_law_residuals=phase_res,
        y_average=y_avg,
        y_average_rel_diff=float(y_avg_rel),
        born_terms=born,
        born2_identity_rel=float(born2_rel),
        schatten=schatten,
        diagnostics=diagnostics,
        comparisons=comparisons,
        passed=all(c["passed"] for c in comparisons),
    )


def _scenario_echo(engine: ScenarioEngine) -> dict:
    sc = engine.sc
    return {
        "k0": sc.k0,
        "dir_in": list(sc.dir_in),
        "dir_out": list(sc.dir_out),
        "eps_list": list(sc.eps_sequence()),
        "alpha_list": list(sc.numerics.alpha_list),
        "lmax": sc.numerics.lmax,
        "p_max": float(engine.p_max),
        "n_max": sc.numerics.n_max,
        "momentum_nodes": int(engine.grid.size),
        "tail_tol": sc.numerics.tail_tol,
        "schatten_radial": sc.numerics.schatten_radial,
        "schatten_order": sc.numerics.schatten_order,
        "tolerances": dict(sc.numerics.tolerances),
        "scatterers": [
            {"center": list(s.center), "kind": s.potential.kind,
             "v0": s.potential.v0, "a": s.potential.a, "rc": s.potential.rc}
            for s in sc.scatterers],
    }
