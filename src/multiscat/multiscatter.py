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

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from multiscat.greens import (
    ComplexEnergy,
    KtildeDiscretization,
    schatten4_decay_diagnostic,
    schatten4_norm,
    schatten4_norm_spectral,
    structure_constants,
)
from multiscat.lippmann import LSSpectrum, MomentumGrid, ls_spectrum, solve_offshell_t
from multiscat.potentials import pair_gap, rollnik_check
from multiscat.radial import onshell_t_lm, phase_shift
from multiscat.specfun import (
    AngularGrid,
    bessel_j_table,
    legendre_table,
    sph_index,
    ylm_table,
)

log = logging.getLogger("multiscat")

# eps_min / (grid level spacing near k0^2) below which the LS health
# numbers flag the run: eps no longer smooths over the discrete levels
SPACING_FLAG_RATIO = 4.0


class TailEstimateError(RuntimeError):
    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


class ExtrapolationError(RuntimeError):
    def __init__(self, msg, samples=None):
        super().__init__(msg)
        self.samples = samples


def eps_list_problem(eps) -> str | None:
    """Why an eps list cannot be extrapolated to eps = 0, or None if it can.

    The list needs at least 3 distinct values, all positive, with a ratio of
    at least 1.2 between successive values once sorted.
    """
    eps = np.array(sorted(set(eps), reverse=True), dtype=float)
    if eps.size < 3:
        return "need at least 3 distinct eps values"
    if np.any(eps <= 0):
        return "eps values must be positive"
    if np.any(eps[:-1] / eps[1:] < 1.2):
        return "eps values must decrease geometrically (ratio >= 1.2 once sorted)"
    return None


def eps_extrapolate(samples: dict) -> tuple[complex, float]:
    """Richardson/Neville extrapolation of eps -> complex samples to eps = 0.

    Needs samples at an eps list that eps_list_problem accepts.  Returns
    (limit, error) with the error taken as the difference between the last
    two extrapolation levels.
    """
    problem = eps_list_problem(samples)
    if problem is not None:
        raise ExtrapolationError(problem, samples=samples)
    eps = np.array(sorted(samples.keys(), reverse=True), dtype=float)
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
    """The inputs of one verification run and the operations on them.

    The constructor builds everything that depends only on the scenario:
    the momentum grid, the engine's one angular rule and the principal-value
    operator on the grid.  The LS solves are memoised by ``offshell(j, l)``,
    one per (potential, l) and the engine's only cache: each holds the
    factors of V_l and the solves at every eps of the run (see
    lippmann.ls_spectrum), every off-shell t-matrix element is read from
    them, and where V_l's radial rule is shorter than the grid no (n x n)
    table is formed.  Every other
    quantity (plane waves and amplitudes on the angular rule, pair profiles,
    phase shifts, structure constants) is computed from those inputs where
    it is used.  run_verification calls the operations in stages: LS
    solves and their health numbers, pair profiles, the X lattice, eps
    extrapolation, gates.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        num = scenario.numerics
        self.p_max = num.p_max or default_p_max(scenario)
        centers = [s.center_array for s in scenario.scatterers]
        self.max_sep = max((np.linalg.norm(a - b) for a in centers for b in centers),
                           default=0.0)
        osc = self.max_sep + (max(num.alpha_list) if num.alpha_list else 0.0) + 2.0
        self.grid = MomentumGrid.build(scenario.k0, self.p_max, n_inner=num.n_inner,
                                       n_mid=num.n_mid, n_outer=num.n_outer,
                                       osc_scale=osc)
        # exact to degree 4*lmax + 8: every angular integral of the engine
        # has, once its plane waves are truncated at L = 2*lmax, a polynomial
        # integrand of degree at most 4*lmax (see _born3); the 8 extra
        # degrees are margin
        self.ang = AngularGrid.for_degree(4 * num.lmax + 8)
        self.pv = _pv_operator(self.grid)
        self._spectra: dict = {}

    def offshell(self, j: int, l: int) -> LSSpectrum:
        """The LS solves of scatterer j in partial wave l at every eps of the run.

        Memoised per (potential, l).
        """
        pot = self.sc.scatterers[j].potential
        key = (pot, l)
        if key not in self._spectra:
            self._spectra[key] = ls_spectrum(pot, l, self.grid, self.sc.eps_sequence())
        return self._spectra[key]

    def ls_health(self) -> dict:
        """Health numbers of the LS solves at the smallest eps.

        Per distinct potential: the count of negative eigenvalues of H
        (grid bound states) per l, and the relative difference between the
        factorised half-shell column at l = 0 and one direct LU solve
        (solve_offshell_t), which must stay below 1e-8.  Over all (potential,
        l): the worst solve residual and the grid level spacing near k0^2 (the
        median gap of the eigenvalues within k0^2 +- eps_min, always
        including the two that bracket k0^2), with eps_min / spacing; a
        ratio below SPACING_FLAG_RATIO sets ``spacing_flag`` and logs a
        warning.
        """
        sc = self.sc
        lmax = sc.numerics.lmax
        eps = min(sc.eps_sequence())
        k2 = sc.k0 ** 2
        first = {}
        for j, s in enumerate(sc.scatterers):
            first.setdefault(s.potential, j)
        potentials, spacing, resid = [], 0.0, 0.0
        for pot, j in first.items():
            spectra = [self.offshell(j, l) for l in range(lmax + 1)]
            direct = solve_offshell_t(pot, 0, ComplexEnergy(sc.k0, eps),
                                      self.grid).half_shell()
            diff = float(np.max(np.abs(spectra[0].half_shell(eps) - direct))
                         / max(np.max(np.abs(direct)), 1e-300))
            if not diff <= 1e-8:
                raise RuntimeError(
                    f"LS cross-check failed for scatterer {j}: the factorised half-shell "
                    f"column differs from the direct solve by {diff:.2e} (relative)")
            potentials.append({"scatterer": j, "kind": pot.kind, "cross_check": diff,
                               "bound_states": [int(np.sum(sp.lam < 0)) for sp in spectra]})
            for sp in spectra:
                resid = max(resid, sp.residual)
                lam = sp.lam
                i = np.searchsorted(lam, k2)
                lo = min(np.searchsorted(lam, k2 - eps), i - 1)
                hi = max(np.searchsorted(lam, k2 + eps, side="right"), i + 1)
                spacing = max(spacing, float(np.median(np.diff(lam[lo:hi]))))
        ratio = eps / spacing
        flag = bool(ratio < SPACING_FLAG_RATIO)
        if flag:
            log.warning("eps_min = %.3g is only %.2f times the LS grid level spacing "
                        "near k0^2 (%.3g): refine the momentum grid or raise eps",
                        eps, ratio, spacing)
        return {"solve_residual": resid,
                "cross_check": max(p["cross_check"] for p in potentials),
                "level_spacing": spacing, "eps_over_spacing": ratio,
                "spacing_flag": flag, "potentials": potentials}

    def _phase(self, j: int, h: int) -> complex:
        """e^{-i k1.x_j + i k2.x_h}, the phase of a term that starts on h and ends on j."""
        sc = self.sc
        return complex(np.exp(-1j * np.dot(sc.k1, sc.scatterers[j].center_array)
                              + 1j * np.dot(sc.k2, sc.scatterers[h].center_array)))

    def _plane_wave(self, D: np.ndarray) -> np.ndarray:
        """e^{i q_i k^_a.D} on the angular rule and the momentum grid, (n_ang, n_q).

        The Rayleigh expansion sum_L i^L (2L+1) j_L(q|D|) P_L(k^_a.D^),
        truncated at L = 2*lmax: exact against any spherical polynomial of
        degree <= 2*lmax (see _born3).  For |D| = 0 only L = 0 survives
        (j_L(0) = delta_L0), so any axis is valid and the z axis is used.
        """
        D_len = float(np.linalg.norm(D))
        axis = D / D_len if D_len > 0 else np.array([0.0, 0.0, 1.0])
        u = self.ang.nodes @ axis
        x = self.grid.nodes * D_len
        Lmax = 2 * self.sc.numerics.lmax
        coef = np.array([(1j) ** L * (2 * L + 1) for L in range(Lmax + 1)])
        wave = coef[:, None] * bessel_j_table(Lmax, x)
        return legendre_table(Lmax, u).T @ wave

    def _amplitude(self, s: int, eps: float, direction) -> np.ndarray:
        """Half-shell amplitude of scatterer s on the angular rule, (n_ang, n_q).

        T_s[a, i] = sum_l (2l+1)/(4 pi) P_l(k^_a.direction) t_l(q_i, k0; z).
        """
        lmax = self.sc.numerics.lmax
        P = legendre_table(lmax, self.ang.nodes @ np.asarray(direction))
        t = np.stack([(2 * l + 1) / (4.0 * np.pi) * self.offshell(s, l).half_shell(eps)[:-1]
                      for l in range(lmax + 1)])
        return P.T @ t

    def pair_profile(self, pair: tuple[int, int], eps: float):
        """Angular-reduced pair integrand S(q) and its standing-wave companion.

        S(q) is the angular average of <k1|t_j(z)|k><k|t_h(z)|k2> (phases
        stripped) over directions of the intermediate momentum, i.e. the
        sandwich of the two half-shell amplitudes through the regular
        radial wave j_0(q|x-y|): one nodal sum of T_j e^{i q k^.(x_j - x_h)}
        T_h on the angular rule.  Sy(q) is the same sandwich through the
        irregular wave y_0(q|x-y|), obtained from S by the principal-value
        identity y_0(q r) = (2/(pi q)) PV int dk k^2 j_0(k r)/(q^2 - k^2):
        a Hilbert-type transform on the momentum grid (see _pv_operator),
        valid for any geometry including overlapping supports.
        """
        j, h = pair
        sc = self.sc
        # T_j * E * T_h in place, so at most two (n_ang, n_q) arrays are alive
        TE = self._amplitude(j, eps, sc.dir_out)
        TE *= self._plane_wave(sc.scatterers[j].center_array - sc.scatterers[h].center_array)
        TE *= self._amplitude(h, eps, sc.dir_in)
        S = self.ang.weights @ TE
        return S, self.pv @ S

    # -- operations ---------------------------------------------------------

    def t_elem(self, j: int, eps: float) -> complex:
        """On-shell element <k1|t_j(z)|k2> of scatterer j."""
        lmax = self.sc.numerics.lmax
        P = legendre_table(lmax, float(np.dot(self.sc.dir_out, self.sc.dir_in)))
        total = sum((2 * l + 1) / (4.0 * np.pi) * P[l] * self.offshell(j, l).on_shell(eps)
                    for l in range(lmax + 1))
        return self._phase(j, j) * complex(total)

    def x_lattice(self, alphas, eps: float,
                  pair: tuple[int, int] = (0, 1)) -> np.ndarray:
        """Pair terms X_alpha(z) for every alpha in ``alphas`` at one eps.

        The integrand uses genuinely off-shell half-shell t-matrix columns
        through one pair profile; the alpha insertion carries the
        branch-continued phase, under which X_alpha = e^{i alpha sqrt(z)} X_0
        up to quadrature error.  Every entry passes the momentum-tail check
        or raises TailEstimateError.  Returns the terms and the worst
        momentum-tail estimate relative to |X_alpha| over the row.
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
        S, Sy = self.pair_profile(pair, eps)
        # branch-continued alpha phase: e^{i alpha q} on the outgoing and
        # e^{-i alpha q} on the incoming half of the free propagation
        aq = np.outer(alphas, q)
        weighted = S * np.cos(aq) - Sy * np.sin(aq)
        radial = w * q * q / (z - q * q)
        contrib = radial * weighted
        totals = self._phase(j, h) * np.sum(contrib, axis=1)
        tol = sc.numerics.tail_tol
        worst = 0.0
        for row, total in zip(contrib, totals):
            est = _tail_estimate(q, row)
            if est > tol * max(abs(total), 1e-300):
                raise TailEstimateError(
                    f"momentum-tail estimate {est:.3e} exceeds "
                    f"{tol:.1e} * |X| = {tol * abs(total):.3e}; increase p_max",
                    estimate=est)
            worst = max(worst, est / max(abs(total), 1e-300))
        return totals, worst

    def x_alpha(self, alpha: float, eps: float, pair: tuple[int, int] = (0, 1)) -> complex:
        """Pair term X_alpha(z) by intermediate-momentum quadrature.

        x_lattice with the single alpha; alpha = 0 is the plain pair term of
        the multiple-scattering series.
        """
        return complex(self.x_lattice([alpha], eps, pair)[0][0])

    def x0_structconst(self, pair: tuple[int, int] = (0, 1)) -> list:
        """On-shell-only evaluation of X_0(k0^2 + i0) for two muffin tins.

        Returns X_0 summed over l, l' <= L for every truncation L = 0..lmax;
        the last entry is the full value.  The structure constants are built
        once at lmax (g_{lm;l'm'} does not depend on the truncation) and the
        phase shifts once per distinct potential.  Hard precondition: the
        two effective supports must not overlap (the re-expansion behind
        the formula has no meaning otherwise).
        """
        sc = self.sc
        j, h = pair
        sj, sh = sc.scatterers[j], sc.scatterers[h]
        gap = pair_gap(sj, sh)
        if gap <= 0:
            raise ValueError(
                f"x0_structconst requires non-overlapping supports (gap {gap:.4g})")
        lmax = sc.numerics.lmax
        g = structure_constants(sc.k0, sh.center_array - sj.center_array, lmax).matrix
        y1 = ylm_table(lmax, np.asarray(sc.dir_out))
        y2c = np.conj(ylm_table(lmax, np.asarray(sc.dir_in)))
        ls = np.concatenate([[l] * (2 * l + 1) for l in range(lmax + 1)]).astype(int)
        t = {pot: np.array([onshell_t_lm(phase_shift(pot, l, sc.k0), sc.k0)
                            for l in range(lmax + 1)])
             for pot in {sj.potential, sh.potential}}
        left = (1j) ** (-ls) * y1 * t[sj.potential][ls]
        right = (1j) ** ls * y2c * t[sh.potential][ls]
        pref = (2.0 / np.pi) * self._phase(j, h)
        return [complex(pref * (left[:n] @ g[:n, :n] @ right[:n]))
                for n in ((L + 1) ** 2 for L in range(lmax + 1))]

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
            return complex(sum(self.t_elem(j, eps) for j in range(n)))
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
        scatterer h (see _projection); t_h then couples them l by l, read
        from its solves without forming the table (grid_sandwich).  Each
        projection integrates e^{i q k^.D} Y_lm(k^) P_l'(k^.k^_ext)
        over directions k^, as pair_profile integrates e^{i q k^.D}
        P_l(k^.k1^) P_l'(k^.k2^).  The Rayleigh expansion
        e^{i q k^.D} = sum_L i^L (2L+1) j_L(q|D|) P_L(k^.D^) makes both exact
        at L <= 2*lmax: the other factor is a spherical polynomial of degree
        at most 2*lmax, to which every P_L with L > 2*lmax is orthogonal.
        What is left has degree at most 4*lmax, which the engine's angular
        rule ``ang`` integrates exactly, with no dependence on q*|D|.
        """
        sc = self.sc
        z = complex(sc.k0 ** 2, eps)
        lmax = sc.numerics.lmax
        q = self.grid.nodes
        w = self.grid.weights
        ang = self.ang
        Yw = ylm_table(lmax, ang.nodes) * ang.weights
        centers = [s.center_array for s in sc.scatterers]
        denom = w * q * q / (z - q * q)
        A = self._projection(Yw, j, centers[j] - centers[h], sc.dir_out, eps) * denom
        B = self._projection(np.conj(Yw), k, centers[h] - centers[k], sc.dir_in,
                             eps) * denom
        total = 0.0 + 0.0j
        for l in range(lmax + 1):
            block = slice(sph_index(l, -l), sph_index(l, l) + 1)
            total += (4.0 * np.pi / (2 * l + 1)) * self.offshell(h, l).grid_sandwich(
                A[block], B[block], eps)
        return self._phase(j, k) * complex(total)

    def _projection(self, Yw: np.ndarray, s: int, D: np.ndarray, direction,
                    eps: float) -> np.ndarray:
        """(nlm, nq) array sum_a Yw[:, a] e^{i q k^_a.D} T_s(k^_a, q).

        T_s is the half-shell amplitude of scatterer s (see _amplitude); the
        plane wave is truncated at L = 2*lmax (exact, see _born3).
        """
        TE = self._amplitude(s, eps, direction)
        TE *= self._plane_wave(D)
        return Yw @ TE

    # -- the full experiment -------------------------------------------------

    def verify(self) -> "VerificationReport":
        return run_verification(self)


def _tail_estimate(q: np.ndarray, contrib: np.ndarray) -> float:
    """Crude geometric-decay bound on the neglected q > p_max tail."""
    qr = q[-1] - q[0]
    last = np.abs(np.sum(contrib[q > q[-1] - qr / 8]))
    prev = np.abs(np.sum(contrib[(q > q[-1] - qr / 4) & (q <= q[-1] - qr / 8)]))
    r = min(last / max(prev, 1e-300), 0.9)
    return float(last * r / (1.0 - r))


def _spline_slopes(q: np.ndarray) -> np.ndarray:
    """Matrix D with D @ f = the slopes at q of the not-a-knot cubic spline through f.

    The slopes s solve the tridiagonal system of the spline's C2 conditions,
    with h_i = q_{i+1} - q_i and divided differences d_i = (f_{i+1} - f_i)/h_i:
    interior rows h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
    = 3 (h_i d_{i-1} + h_{i-1} d_i), and at each end the not-a-knot row
    (the third derivative is continuous across the second and the
    second-to-last node), reduced to two entries.  Every right-hand side is
    linear in f, so one forward elimination and back substitution over the
    n right-hand sides of the (n x n) matrix of divided differences gives D
    in O(n^2).
    """
    n = q.size
    h = np.diff(q)
    delta = (np.eye(n, k=1) - np.eye(n))[:-1] / h[:, None]   # d = delta @ f
    lower = np.zeros(n)              # lower[i] multiplies s_{i-1}
    diag = np.empty(n)
    upper = np.zeros(n)              # upper[i] multiplies s_{i+1}
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


def _pv_operator(grid: MomentumGrid) -> np.ndarray:
    """Real matrix M with M @ S = (2/(pi q)) PV int dk k^2 S(k)/(q^2 - k^2).

    With f = k^2 S, the PV integral at node q_i is the subtracted grid sum
    sum_j w_j (f_j - f_i)/(q_i^2 - q_j^2), whose j = i term takes its limit
    -w_i f'(q_i)/(2 q_i) from the slope of the not-a-knot cubic spline
    through f (one linear solve on the grid, see _spline_slopes), plus the
    analytic counter-term f_i ln((P + q_i)/(P - q_i))/(2 q_i) for the
    integral of 1/(q_i^2 - k^2) over [0, P].  Each step is linear in f, so
    the transform is one matrix on the grid.
    """
    q = grid.nodes
    w = grid.weights
    P = grid.p_max
    den = np.subtract.outer(q * q, q * q)   # q_i^2 - k_j^2
    np.fill_diagonal(den, 1.0)
    K = w / den
    np.fill_diagonal(K, 0.0)
    diag = np.log((P + q) / (P - q)) / (2.0 * q) - K.sum(axis=1)
    K -= (w / (2.0 * q))[:, None] * _spline_slopes(q)
    K[np.diag_indices_from(K)] += diag
    return (2.0 / (np.pi * q))[:, None] * K * (q * q)


@dataclass
class VerificationReport:
    scenario: dict
    x0_direct: complex
    x0_direct_error: float
    x0_structconst: complex | None
    x0_structconst_by_lmax: list | None
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
            "l2_norm": rd.l2_norm, "admissible": rd.admissible,
            "l1_residual": rd.l1_residual, "l2_residual": rd.l2_residual})
    # stage 1: the LS solves per (potential, l), and their health numbers
    diagnostics["ls"] = engine.ls_health()

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
            x0_structconst=None, x0_structconst_by_lmax=None,
            structconst_truncation=None, onshell_rel_diff=None,
            x_alpha_extrapolated={}, x_alpha_by_eps={}, y_alpha_samples={},
            alpha_flatness=0.0, phase_law_residuals={}, y_average=0j,
            y_average_rel_diff=0.0, born_terms=[b1], born2_identity_rel=None,
            schatten={}, diagnostics=diagnostics, comparisons=[], passed=True)
        return report

    gap = pair_gap(sc.scatterers[0], sc.scatterers[1])
    diagnostics["pair_gap"] = float(gap)
    overlapping = gap <= 0

    # stages 2-3: one pair profile and one row of X_alpha per eps
    if not alphas:
        alphas = (0.0,)
    lattice_alphas = alphas if 0.0 in alphas else alphas + (0.0,)
    lattice, tail = {}, {}
    for e in eps_seq:
        lattice[e], tail[e] = engine.x_lattice(lattice_alphas, e)
    diagnostics["tail_ratio"] = tail

    # stage 4: extrapolation to eps = 0, per alpha
    x_by_eps, x_extrap, x_err = {}, {}, {}
    for i, a in enumerate(lattice_alphas):
        samples = {e: complex(lattice[e][i]) for e in eps_seq}
        if a in alphas:
            x_by_eps[a] = samples
        x_extrap[a], x_err[a] = eps_extrapolate(samples)
    x0 = x_extrap[0.0]
    diagnostics["richardson_error"] = x_err

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

    x0_sc, x0_sc_by_lmax, trunc, onshell_rel = None, None, None, None
    if not overlapping and n_scat == 2:
        x0_sc_by_lmax = engine.x0_structconst()
        x0_sc = x0_sc_by_lmax[-1]
        # the top-l shell: lmax against lmax - 1 (against 0 at lmax 0)
        trunc = abs(x0_sc - ([0j] + x0_sc_by_lmax)[-2]) / max(abs(x0_sc), 1e-300)
        onshell_rel = abs(x0_sc - x0) / abs(x0_sc)

    # the order-2 term at eps_min is the sum born_term(2) would form, over
    # ordered pairs: (0, 1) is the lattice's alpha = 0 entry (the value
    # x_alpha gives), every other pair is computed once
    eps_min = min(eps_seq)
    pair_sum = sum(complex(lattice[eps_min][lattice_alphas.index(0.0)])
                   if (j, h) == (0, 1) else engine.x_alpha(0.0, eps_min, (j, h))
                   for j in range(n_scat) for h in range(n_scat) if j != h)
    born = [engine.born_term(1, eps_min), complex(pair_sum)]
    if num.n_max >= 3:
        born.append(engine.born_term(3, eps_min))
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
        # the spectral norm at every k of the decay diagnostic; the value is k0's
        ks = [0.5 * sc.k0, sc.k0, 2.0 * sc.k0, 3.0 * sc.k0]
        norms = schatten4_norm_spectral(sc.scatterers[0].potential,
                                        sc.scatterers[1].potential, ks, R_len)
        s_val, s_delta = norms[1]
        schatten = {"method": "spectral", "value": float(s_val),
                    "refinement_delta": float(s_delta)}
        # truncated-integral decay diagnostic (report-only; the tail beyond
        # the sampled k-range is not computable at desk scale)
        schatten["decay_diagnostic"] = schatten4_decay_diagnostic(
            ks, [v for v, _ in norms])

    # stage 5: the gates
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
        x0_structconst_by_lmax=x0_sc_by_lmax,
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
