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
from dataclasses import asdict, dataclass, field

import numpy as np

from multiscat.greens import (
    schatten4_decay_diagnostic,
    schatten4_norm,
    schatten4_norm_spectral,
    structure_constants,
)
from multiscat.lippmann import (
    ComplexEnergy,
    MomentumGrid,
    ls_spectrum,
    ls_weights,
    solve_offshell_t,
)
from multiscat.potentials import pair_gap, rollnik_check
from multiscat.radial import onshell_t_lm, phase_shift
from multiscat.specfun import (
    AngularGrid,
    bessel_j_table,
    legendre_table,
    sin_cos,
    sph_index,
    ylm_table,
)

log = logging.getLogger("multiscat")


class TailEstimateError(RuntimeError):
    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


class ExtrapolationError(RuntimeError):
    """The eps samples cannot be extrapolated to eps = 0."""


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


def alpha_list_problem(alphas) -> str | None:
    """Why an alpha list cannot test the phase law, or None if it can.

    The alpha gates compare Y_alpha across alphas and the phase law needs
    an alpha != 0, so the list needs at least 2 distinct values (then one
    of them is nonzero).  Every alpha must be >= 0, so that
    |e^{i alpha sqrt z}| <= 1 for Im sqrt z >= 0.
    """
    if any(a < 0 for a in alphas):
        return "alpha values must be nonnegative"
    if len(set(alphas)) < 2:
        return "need at least 2 distinct alpha values, one of them nonzero"
    return None


def eps_extrapolate(samples: dict):
    """Richardson/Neville extrapolation of eps -> complex samples to eps = 0.

    Needs samples at an eps list that eps_list_problem accepts.  Returns
    (limit, error) with the error taken as the difference between the last
    two extrapolation levels.  Array samples of one shape are extrapolated
    element by element in one tableau, to a complex and a float array.
    """
    problem = eps_list_problem(samples)
    if problem is not None:
        raise ExtrapolationError(problem)
    eps = np.array(sorted(samples.keys(), reverse=True), dtype=float)
    f = np.array([samples[e] for e in eps], dtype=complex)
    e = eps.reshape((-1,) + (1,) * (f.ndim - 1))
    prev, cur = None, f
    for j in range(1, eps.size):
        prev, cur = cur, (e[:-j] * cur[1:] - e[j:] * cur[:-1]) / (e[:-j] - e[j:])
    limit, err = cur[0], np.abs(cur[0] - prev[-1])
    if f.ndim == 1:
        return complex(limit), float(err)
    return limit, err


@dataclass(frozen=True)
class Numerics:
    """Grid orders and tolerances for a scenario run (all fields echoed)."""

    lmax: int = 8
    eps_list: tuple = ()          # defaults to (0.2, 0.1, 0.05, 0.025) * k0^2
    alpha_list: tuple = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    p_max: float | None = None
    n_inner: int = 64
    n_mid: int = 48
    n_max: int = 2
    tail_tol: float = 0.05
    tolerances: dict = field(default_factory=lambda: {
        "onshell_equivalence": 1e-3,
        "phase_law": 1e-3,
        "alpha_flatness": 1e-2,
        "born2_identity": 1e-6,
        "y_average": 1e-3,
    })


def direction_length(v) -> float:
    """|v| from v scaled by its largest component, which neither under- nor overflows
    where |v|^2 does: 0 for the zero vector, not finite when a component is not."""
    v = np.asarray(v, dtype=float)
    top = np.max(np.abs(v))
    with np.errstate(all="ignore"):
        return float(top * np.linalg.norm(v / top) if top > 0 else top)


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
            length = direction_length(v)
            if not 0 < length < np.inf:
                raise ValueError(f"{name} must be a nonzero direction of finite length, "
                                 f"got {tuple(v.tolist())}")
            with np.errstate(all="ignore"):
                n = np.linalg.norm(v)
            object.__setattr__(self, name, tuple(v / n if 0 < n < np.inf else v / length))
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

    The constructor builds everything that depends only on the scenario,
    each table once: the momentum grid, the engine's one angular rule, the
    principal-value operator on the grid (``pv``), the partial-wave
    weights c_l = (2l+1)/(4 pi), l <= lmax (``c_l``), and, per distinct
    separation |D| of two centres, the Rayleigh table
    i^L (2L+1) j_L(q|D|), L <= 2*lmax, on the grid (``rayleigh``, keyed by
    |D|), which every _projection of that separation reads, and, per
    direction u among dir_in, dir_out and the unit axis of every centre
    difference, the Legendre table P_L(k^_a.u), L <= 2*lmax, on the angular
    rule (``legendre``, keyed by u), whose rows every pair profile and
    _projection slice.  The LS stage is built by ``offshell(j)`` on first
    use, once per distinct potential: one LSSpectrum that holds every
    l <= lmax, solved at every eps of the run, with its half-shell columns
    formed once (see lippmann.ls_spectrum).  Every off-shell t-matrix
    element is read from it for every l at once, and no (n x n) t-matrix
    table is formed.  Every other quantity is computed from those inputs
    where it is used: phase shifts, structure constants, and one angular
    projection of a half-shell amplitude per series term and pair of
    centres (_projection), which gives both the pair profiles of order 2
    and the Born-3 term.  run_verification calls the operations in stages:
    the LS stage and its health numbers, pair profiles, the X lattice, eps
    extrapolation, gates.  The pv, c_l, rayleigh and legendre tables are read-only.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        num = scenario.numerics
        self.p_max = num.p_max or default_p_max(scenario)
        centers = [s.center_array for s in scenario.scatterers]
        seps = {float(np.linalg.norm(a - b)) for j, a in enumerate(centers) for b in centers[:j]}
        self.max_sep = max(seps, default=0.0)
        osc = self.max_sep + (max(num.alpha_list) if num.alpha_list else 0.0) + 2.0
        self.grid = MomentumGrid.build(scenario.k0, self.p_max, n_inner=num.n_inner,
                                       n_mid=num.n_mid, osc_scale=osc)
        # exact to degree 4*lmax: every angular integral of the engine has,
        # once its plane waves are truncated at L = 2*lmax, a polynomial
        # integrand of degree at most 4*lmax (see _projection)
        self.ang = AngularGrid.for_degree(4 * num.lmax)
        self.pv = _pv_operator(self.grid)
        # the partial-wave weights c_l = (2l+1)/(4 pi) of sum_l c_l P_l t_l, l <= lmax
        self.c_l = (2 * np.arange(num.lmax + 1) + 1) / (4.0 * np.pi)
        # the Rayleigh factors i^L (2L+1) j_L(q |D|), L <= 2*lmax, of every
        # distinct separation |D| of two centres, keyed by |D|
        coef = np.array([(1j) ** L * (2 * L + 1) for L in range(2 * num.lmax + 1)])[:, None]
        self.rayleigh = {r: coef * bessel_j_table(2 * num.lmax, self.grid.nodes * r)
                         for r in sorted(seps)}
        # P_L(k^_a.u), L <= 2*lmax, on the angular rule for u = dir_in, dir_out
        # and the unit axis of every centre difference, keyed by u
        units = {tuple(scenario.dir_in), tuple(scenario.dir_out)} | {
            _unit_axis(a - b) for j, a in enumerate(centers)
            for h, b in enumerate(centers) if j != h}
        self.legendre = {u: legendre_table(2 * num.lmax, self.ang.nodes @ np.asarray(u))
                         for u in units}
        for table in (self.pv, self.c_l, *self.rayleigh.values(), *self.legendre.values()):
            table.flags.writeable = False
        self._spectra: dict = {}

    def offshell(self, j: int):
        """The LS stage of scatterer j's potential: one LSSpectrum for every l <= lmax.

        It holds the solves at every eps of the run and at eps = 0.  Built
        on first use, once per distinct potential.
        """
        pot = self.sc.scatterers[j].potential
        if pot not in self._spectra:
            self._spectra[pot] = ls_spectrum(pot, self.sc.numerics.lmax, self.grid,
                                             self.sc.eps_sequence() + (0.0,))
        return self._spectra[pot]

    def ls_health(self) -> dict:
        """Health numbers of the LS stage.

        Per distinct potential (``offshell``): the grid bound states and
        the solve rank per l; the relative difference of the l = 0
        half-shell column at eps_min from one direct solve of it
        (solve_offshell_t), which must stay below 1e-8 (the spectrum forms
        that column from the B and X that Born-3 reads, so it checks them
        too); and per l the gap of the on-shell t_l extrapolated over the
        run's eps (every l in one tableau) from the eps = 0 solve, and the
        extrapolation's Richardson error, both relative to max_l |t_l(0)|.
        Over all of them: the worst solve residual, the largest gap and the
        largest error; a gap above the error sets ``extrapolation_flag``
        and logs a warning.  The direct solve is (n_r x n_r) on the radial
        rule, and only its residual reads the (n + 1)^2 V_l.  It runs before
        ``offshell`` first builds the stage, so its (n x n) transients are
        freed before the stage's long-lived arrays are allocated.
        """
        sc = self.sc
        eps_seq = sc.eps_sequence()
        eps = min(eps_seq)
        first = {}
        for j, s in enumerate(sc.scatterers):
            first.setdefault(s.potential, j)
        potentials, resid = [], 0.0
        for pot, j in first.items():
            direct = solve_offshell_t(pot, 0, ComplexEnergy(sc.k0, eps), self.grid)
            sp = self.offshell(j)
            resid = max(resid, sp.residual)
            diff = float(np.max(np.abs(sp.half_shell(eps)[0] - direct))
                         / max(np.max(np.abs(direct)), 1e-300))
            if not diff <= 1e-8:
                raise RuntimeError(
                    f"LS cross-check failed for scatterer {j}: the factorised half-shell "
                    f"column differs from the direct solve by {diff:.2e} (relative)")
            t0 = sp.on_shell(0.0)
            scale = max(float(np.max(np.abs(t0))), 1e-300)
            lim, err = eps_extrapolate({e: sp.on_shell(e) for e in eps_seq})
            potentials.append({"scatterer": j, "kind": pot.kind, "cross_check": diff,
                               "bound_states": list(sp.bound_states), "rank": list(sp.rank),
                               "extrapolation_gap": (np.abs(lim - t0) / scale).tolist(),
                               "extrapolation_error": (err / scale).tolist()})
        gap = max(g for p in potentials for g in p["extrapolation_gap"])
        err = max(e for p in potentials for e in p["extrapolation_error"])
        flag = bool(gap > err)
        if flag:
            log.warning("the on-shell t_l extrapolated to eps = 0 differs from the eps = 0 "
                        "solve by %.2e, more than its Richardson error %.2e (relative to "
                        "max_l |t_l|): refine the momentum grid or lower eps", gap, err)
        return {"solve_residual": resid,
                "cross_check": max(p["cross_check"] for p in potentials),
                "extrapolation_gap": gap, "extrapolation_error": err,
                "extrapolation_flag": flag, "potentials": potentials}

    def _phase(self, j: int, h: int) -> complex:
        """e^{-i k1.x_j + i k2.x_h}, the phase of a term that starts on h and ends on j."""
        sc = self.sc
        return complex(np.exp(-1j * np.dot(sc.k1, sc.scatterers[j].center_array)
                              + 1j * np.dot(sc.k2, sc.scatterers[h].center_array)))

    def pair_profile(self, pair: tuple[int, int], eps_seq):
        """Angular-reduced pair integrand S(q) and its standing-wave companion,
        one row per eps of ``eps_seq``.

        S(q) is the angular average of <k1|t_j(z)|k><k|t_h(z)|k2> (phases
        stripped) over directions of the intermediate momentum, i.e. the
        sandwich of the two half-shell amplitudes through the regular
        radial wave j_0(q|x-y|).  It is the projection (_projection, as in
        _born3) of T_j, carried by e^{i q k^.(x_j - x_h)}, onto the rows
        c_l' P_l'(k^_a.k2^) w_a; by the addition theorem
        S(q) = sum_l' t_h,l'(q) proj[l', q], one sum over l' for every eps.
        Sy(q) is the same sandwich through the irregular wave y_0(q|x-y|),
        obtained from S by the principal-value identity
        y_0(q r) = (2/(pi q)) PV int dk k^2 j_0(k r)/(q^2 - k^2):
        a Hilbert-type transform on the momentum grid (see _pv_operator),
        valid for any geometry including overlapping supports, applied to
        every row in one stacked product.  A row does not depend on the
        other eps of the call.
        """
        j, h = pair
        sc = self.sc
        lmax = sc.numerics.lmax
        rows = self.c_l[:, None] * self.legendre[tuple(sc.dir_in)][:lmax + 1] * self.ang.weights
        proj = self._projection(rows, j, sc.scatterers[j].center_array
                                - sc.scatterers[h].center_array, sc.dir_out, eps_seq)
        S = (self.offshell(h).half_shell(eps_seq)[:, :, :-1] * proj).sum(axis=1)
        return S, (self.pv @ S[:, :, None])[:, :, 0]

    # -- operations ---------------------------------------------------------

    def t_elem(self, j: int, eps: float) -> complex:
        """On-shell element <k1|t_j(z)|k2> of scatterer j."""
        lmax = self.sc.numerics.lmax
        P = legendre_table(lmax, float(np.dot(self.sc.dir_out, self.sc.dir_in)))
        return self._phase(j, j) * complex(np.sum(self.c_l * P * self.offshell(j).on_shell(eps)))

    def x_lattice(self, alphas, eps_seq,
                  pair: tuple[int, int] = (0, 1)) -> tuple[np.ndarray, np.ndarray]:
        """Pair terms X_alpha(z) for every alpha in ``alphas`` at every eps of ``eps_seq``.

        The integrand is one (n_eps, n_alpha, n_q) block: the pair profiles
        of every eps, built on genuinely off-shell half-shell t-matrix
        columns, times the alpha insertion and R0(z) (lippmann.ls_weights).
        The insertion carries the branch-continued phase, under which
        X_alpha = e^{i alpha sqrt(z)} X_0 up to quadrature error.  Every
        entry passes the momentum-tail check, or TailEstimateError names
        the first failing one in (eps, alpha) order.  Returns the terms
        (n_eps, n_alpha) and, per eps, the worst momentum-tail estimate
        relative to |X_alpha| over the row.
        """
        if min(eps_seq) <= 0:
            raise ValueError("x_alpha needs eps > 0; use eps_extrapolate for the limit")
        j, h = pair
        if j == h:
            raise ValueError("pair term needs two distinct scatterers")
        q = self.grid.nodes
        tol = self.sc.numerics.tail_tol
        # branch-continued alpha phase: e^{i alpha q} on the outgoing and
        # e^{-i alpha q} on the incoming half of the free propagation
        sin, cos = sin_cos(np.outer(alphas, q))
        S, Sy = self.pair_profile(pair, eps_seq)
        contrib = ls_weights(self.grid, eps_seq)[:, None, :-1] * (
            S[:, None] * cos - Sy[:, None] * sin)
        totals = self._phase(j, h) * np.sum(contrib, axis=-1)
        est = _tail_estimate(q, contrib)
        size = np.maximum(np.abs(totals), 1e-300)
        bad = np.argwhere(est > tol * size)
        if bad.size:
            i = tuple(bad[0])
            raise TailEstimateError(
                f"momentum-tail estimate {est[i]:.3e} exceeds "
                f"{tol:.1e} * |X| = {tol * abs(totals[i]):.3e}; increase p_max",
                estimate=float(est[i]))
        return totals, np.max(est / size, axis=1)

    def x_alpha(self, alpha: float, eps: float, pair: tuple[int, int] = (0, 1)) -> complex:
        """Pair term X_alpha(z) by intermediate-momentum quadrature.

        x_lattice with the single alpha and eps; alpha = 0 is the plain
        pair term of the multiple-scattering series.
        """
        return complex(self.x_lattice([alpha], [eps], pair)[0][0, 0])

    def x0_structconst(self, pair: tuple[int, int] = (0, 1)) -> list:
        """On-shell-only evaluation of X_0(k0^2 + i0) for two muffin tins.

        Returns X_0 summed over l, l' <= L for every truncation L = 0..lmax;
        the last entry is the full value.  The structure constants are built
        once at lmax (g_{lm;l'm'} does not depend on the truncation) and the
        phase shifts of every l in one sweep per distinct potential.  Hard
        precondition: the two effective supports must not overlap (the
        re-expansion behind the formula has no meaning otherwise).
        """
        sc = self.sc
        j, h = pair
        sj, sh = sc.scatterers[j], sc.scatterers[h]
        gap = pair_gap(sj, sh)
        if gap <= 0:
            raise ValueError(
                f"x0_structconst requires non-overlapping supports (gap {gap:.4g})")
        lmax = sc.numerics.lmax
        g = structure_constants(sc.k0, sh.center_array - sj.center_array, lmax)
        y1 = ylm_table(lmax, np.asarray(sc.dir_out))
        y2c = np.conj(ylm_table(lmax, np.asarray(sc.dir_in)))
        ls = np.concatenate([[l] * (2 * l + 1) for l in range(lmax + 1)]).astype(int)
        t = {pot: onshell_t_lm(phase_shift(pot, range(lmax + 1), sc.k0), sc.k0)
             for pot in {sj.potential, sh.potential}}
        left = (1j) ** (-ls) * y1 * t[sj.potential][ls]
        right = (1j) ** ls * y2c * t[sh.potential][ls]
        pref = (2.0 / np.pi) * self._phase(j, h)
        return [complex(pref * (left[:n] @ g[:n, :n] @ right[:n]))
                for n in ((L + 1) ** 2 for L in range(lmax + 1))]

    def pair_terms(self, eps: float) -> dict:
        """X_0(z) of every ordered pair (j, h), j != h, at z = k0^2 + i eps, by x_alpha."""
        n = len(self.sc.scatterers)
        return {(j, h): self.x_alpha(0.0, eps, (j, h))
                for j in range(n) for h in range(n) if j != h}

    def born_term(self, order: int, eps: float, pairs: dict | None = None) -> complex:
        """Order-n term of the multiple-scattering series at z = k0^2 + i eps.

        Order 2 sums ``pairs``, the result of pair_terms(eps), computed here
        when not given.
        """
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
            return complex(sum((pairs or self.pair_terms(eps)).values()))
        if order == 3:
            # one harmonic table for all terms
            Yw = ylm_table(sc.numerics.lmax, self.ang.nodes) * self.ang.weights
            return complex(sum(self._born3(j, h, k, eps, Yw)
                               for j in range(n) for h in range(n) for k in range(n)
                               if j != h and h != k))
        raise ValueError("orders above 3 are not implemented")

    def _born3(self, j: int, h: int, k: int, eps: float, Yw: np.ndarray) -> complex:
        """Third-order term <k1|t_j R0 t_h R0 t_k|k2> at z = k0^2 + i eps.

        Both free propagations are projected onto partial waves (l, m) about
        scatterer h by _projection, with Y_lm rows where pair_profile has
        Legendre rows; t_h = B_l^T X_l B_l then couples them l by l in the
        rank of its factors, without forming the table.  ``Yw`` is the
        weighted Y_lm table on ``ang``, shared between the terms of one order.
        """
        sc = self.sc
        lmax = sc.numerics.lmax
        centers = [s.center_array for s in sc.scatterers]
        denom = ls_weights(self.grid, [eps])[0, :-1]
        A = self._projection(Yw, j, centers[j] - centers[h], sc.dir_out, [eps])[0] * denom
        B = self._projection(np.conj(Yw), k, centers[h] - centers[k], sc.dir_in,
                             [eps])[0] * denom
        sp = self.offshell(h)
        X, Bg = sp.x(eps), sp.B[:, :, :-1].transpose(0, 2, 1)
        total = 0.0 + 0.0j
        for l in range(lmax + 1):
            block = slice(sph_index(l, -l), sph_index(l, l) + 1)
            total += (4.0 * np.pi / (2 * l + 1)) * np.sum(
                (A[block] @ Bg[l] @ X[l]) * (B[block] @ Bg[l]))
        return self._phase(j, k) * complex(total)

    def _projection(self, rows: np.ndarray, s: int, D: np.ndarray, direction,
                    eps_seq) -> np.ndarray:
        """sum_a rows[x, a] e^{i q k^_a.D} T_s(k^_a, q) at each eps, (n_eps, n_x, n_q).

        T_s(k^, q) = sum_l c_l P_l(k^.direction) t_l(q, k0; z), c_l =
        (2l+1)/(4 pi), is the half-shell amplitude of scatterer s, and
        ``rows`` (n_x, n_ang) weighs the nodes of the angular rule by
        spherical polynomials of degree <= lmax.  The Rayleigh expansion
        e^{i q k^.D} = sum_L i^L (2L+1) j_L(q|D|) P_L(k^.D^) is then exact at
        L <= 2*lmax: every higher P_L is orthogonal to rows * P_l, and what
        is left has degree <= 4*lmax, which ``ang`` integrates exactly for
        any q*|D|.  At |D| = 0 only L = 0 survives (j_L(0) = delta_L0) and
        the z axis serves.  The nodes are summed once, into K[x, (l, L)] =
        sum_a rows[x, a] c_l P_l(k^_a.direction) P_L(k^_a.D^); each eps is
        then one product K @ [t_l(q) wave_L(q)], so a row does not depend on
        the other eps of the call.  wave_L(q) = i^L (2L+1) j_L(q|D|) is the
        engine's Rayleigh table of |D| (``rayleigh``), and P_l and P_L are
        rows of its Legendre tables of ``direction`` and of D^
        (``legendre``), all built with the engine; so ``direction`` must be
        dir_in or dir_out, and D the difference of two of the run's centres.
        Real ``rows``, as pair_profile's are, take one real product with the
        node table.
        """
        lmax = self.sc.numerics.lmax
        P = self.c_l[:, None] * self.legendre[tuple(direction)][:lmax + 1]
        PL = self.legendre[_unit_axis(D)]
        G = (P.T[:, :, None] * PL.T[:, None, :]).reshape(self.ang.size, -1)
        # real rows take one real product; complex ones two, rather than
        # promoting G to complex
        K = rows @ G if np.isrealobj(rows) else rows.real @ G + 1j * (rows.imag @ G)
        wave = self.rayleigh[float(np.linalg.norm(D))]
        return np.array([K @ (t[:, None, :] * wave[None, :, :]).reshape(K.shape[1], -1)
                         for t in self.offshell(s).half_shell(eps_seq)[:, :, :-1]])

    # -- the full experiment -------------------------------------------------

    def verify(self) -> "VerificationReport":
        return run_verification(self)


def _unit_axis(D: np.ndarray) -> tuple:
    """D / |D| as a key of ``ScenarioEngine.legendre``; the z axis at D = 0."""
    D_len = float(np.linalg.norm(D))
    return tuple((D / D_len).tolist()) if D_len > 0 else (0.0, 0.0, 1.0)


def _tail_estimate(q: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Crude geometric-decay bound on the neglected q > p_max tail of every
    integrand in ``contrib`` (x_lattice's (eps, alpha) block) over its last axis, q."""
    qr = q[-1] - q[0]
    last = np.abs(np.sum(contrib[..., q > q[-1] - qr / 8], axis=-1))
    prev = np.abs(np.sum(contrib[..., (q > q[-1] - qr / 4) & (q <= q[-1] - qr / 8)], axis=-1))
    r = np.minimum(last / np.maximum(prev, 1e-300), 0.9)
    return last * r / (1.0 - r)


def _spline_slopes(q: np.ndarray) -> np.ndarray:
    """Matrix D with D @ f = the slopes at q of the not-a-knot cubic spline through f.

    The slopes s solve the tridiagonal system of the spline's C2 conditions,
    with h_i = q_{i+1} - q_i and divided differences d_i = (f_{i+1} - f_i)/h_i:
    interior rows h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1}
    = 3 (h_i d_{i-1} + h_{i-1} d_i), and at each end the not-a-knot row
    (the third derivative is continuous across the second and the
    second-to-last node), reduced to two entries.  Every right-hand side is
    linear in f: row i of the right-hand-side matrix is banded, with
    entries at columns i-1..i+1 (0..2 and n-3..n-1 on the end rows),
    written into one zeroed (n x n) array.  Forward elimination then keeps
    row i nonzero only on its prefix [:i+2], so it runs over that prefix,
    and back substitution over the n right-hand sides gives D in O(n^2).
    """
    n = q.size
    h = np.diff(q)
    inv = 1.0 / h                    # d_i = inv_i (f_{i+1} - f_i)
    lower = np.zeros(n)              # lower[i] multiplies s_{i-1}
    diag = np.empty(n)
    upper = np.zeros(n)              # upper[i] multiplies s_{i+1}
    B = np.zeros((n, n))
    lower[1:-1] = h[1:]
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    upper[1:-1] = h[:-1]
    i = np.arange(1, n - 1)
    # interior rows 3 (h_i d_{i-1} + h_{i-1} d_i), column by column
    B[i, i - 1] = 3.0 * (h[1:] * -inv[:-1])
    B[i, i] = 3.0 * (h[1:] * inv[:-1] + h[:-1] * -inv[1:])
    B[i, i + 1] = 3.0 * (h[:-1] * inv[1:])
    d = q[2] - q[0]
    diag[0], upper[0] = h[1], d
    a, b = (h[0] + 2.0 * d) * h[1], h[0] ** 2
    B[0, :3] = [a * -inv[0] / d, (a * inv[0] + b * -inv[1]) / d, b * inv[1] / d]
    d = q[-1] - q[-3]
    lower[-1], diag[-1] = d, h[-2]
    a, b = h[-1] ** 2, (2.0 * d + h[-1]) * h[-2]
    B[-1, -3:] = [a * -inv[-2] / d, (a * inv[-2] + b * -inv[-1]) / d, b * inv[-1] / d]
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        B[i, :i + 2] -= w * B[i - 1, :i + 2]
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
    the transform is one matrix on the grid, built in place: the only other
    (n x n) array alive is the slope matrix.
    """
    q = grid.nodes
    w = grid.weights
    P = grid.p_max
    q2 = q * q
    K = np.subtract.outer(q2, q2)   # q_i^2 - k_j^2
    np.fill_diagonal(K, 1.0)
    np.divide(w, K, out=K)
    np.fill_diagonal(K, 0.0)
    diag = np.log((P + q) / (P - q)) / (2.0 * q) - K.sum(axis=1)
    slopes = _spline_slopes(q)
    slopes *= (w / (2.0 * q))[:, None]
    K -= slopes
    K[np.diag_indices_from(K)] += diag
    K *= (2.0 / (np.pi * q))[:, None]
    K *= q2
    return K


@dataclass
class VerificationReport:
    """What one run found.  The fields after ``diagnostics`` default to
    their values for a single scatterer, which has no pair term and no gates."""

    scenario: dict
    born_terms: list
    diagnostics: dict
    x0_direct: complex = 0j
    x0_direct_error: float = 0.0
    x0_structconst: complex | None = None
    x0_structconst_by_lmax: list | None = None
    structconst_truncation: float | None = None
    onshell_rel_diff: float | None = None
    x_alpha_extrapolated: dict = field(default_factory=dict)
    x_alpha_by_eps: dict = field(default_factory=dict)
    y_alpha_samples: dict = field(default_factory=dict)
    alpha_flatness: float = 0.0
    phase_law_residuals: dict = field(default_factory=dict)
    y_average: complex = 0j
    y_average_rel_diff: float = 0.0
    born2_identity_rel: float | None = None
    schatten: dict = field(default_factory=dict)
    comparisons: list = field(default_factory=list)
    passed: bool = True

    def to_json_dict(self) -> dict:
        return _jsonify(self.__dict__)


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
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
    if n_scat > 1 and (problem := alpha_list_problem(alphas)):
        raise ValueError(f"alpha_list {list(alphas)}: {problem}")

    diagnostics = {
        "momentum_nodes": int(engine.grid.size),
        "p_max": float(engine.p_max),
        "rollnik": [{"kind": s.potential.kind, **asdict(rollnik_check(s.potential))}
                    for s in sc.scatterers],
        "pair_gap": None,
    }
    # stage 1: the LS stage per distinct potential, and its health numbers
    diagnostics["ls"] = engine.ls_health()

    comparisons = []

    def compare(name, value, tol):
        ok = bool(value < tol)
        comparisons.append({"name": name, "value": float(value),
                            "tolerance": float(tol), "passed": ok})
        return ok

    if n_scat == 1:
        return VerificationReport(scenario=_scenario_echo(engine),
                                  born_terms=[engine.born_term(1, min(eps_seq))],
                                  diagnostics=diagnostics)

    gap = pair_gap(sc.scatterers[0], sc.scatterers[1])
    diagnostics["pair_gap"] = float(gap)
    overlapping = gap <= 0

    # stages 2-3: the pair profiles, then the X lattice, each one (eps, ...) block;
    # alpha = 0 is always computed, since X_0 is what the gates compare with
    lattice_alphas = alphas if 0.0 in alphas else alphas + (0.0,)
    rows, tails = engine.x_lattice(lattice_alphas, eps_seq)
    lattice = dict(zip(eps_seq, rows))
    diagnostics["tail_ratio"] = {e: float(t) for e, t in zip(eps_seq, tails)}

    # stage 4: extrapolation to eps = 0, every alpha in one tableau
    limits, errors = eps_extrapolate(lattice)
    x_extrap = {a: complex(x) for a, x in zip(lattice_alphas, limits)}
    x_err = {a: float(e) for a, e in zip(lattice_alphas, errors)}
    x_by_eps = {a: {e: complex(lattice[e][i]) for e in eps_seq}
                for i, a in enumerate(lattice_alphas)}
    x0 = x_extrap[0.0]
    diagnostics["richardson_error"] = x_err
    if x0 == 0:
        raise ValueError("the extrapolated pair term X_0 vanishes (a zero potential?): "
                         "the alpha gates are relative to |X_0|")

    y_samples = {a: complex(np.exp(-1j * a * sc.k0) * x_extrap[a]) for a in alphas}
    flat = max(abs(y_samples[a] - x0) for a in alphas) / abs(x0)

    # arg(X_alpha / X_0) - alpha k0, wrapped to [-pi, pi)
    wrapped = {a: (np.angle(x_extrap[a] / x0) - a * sc.k0 + np.pi) % (2.0 * np.pi) - np.pi
               for a in alphas if a != 0.0}
    phase_res = {a: float(abs(d)) for a, d in wrapped.items()}

    # trapezoid alpha-average of Y over [alpha_min, alpha_max]
    a_arr = np.array(sorted(y_samples))
    y_arr = np.array([y_samples[a] for a in a_arr])
    y_avg = complex(np.trapezoid(y_arr, a_arr) / (a_arr[-1] - a_arr[0]))
    y_avg_rel = abs(y_avg - x0) / abs(x0)

    x0_sc, x0_sc_by_lmax, trunc, onshell_rel = None, None, None, None
    if not overlapping and n_scat == 2:
        x0_sc_by_lmax = engine.x0_structconst()
        x0_sc = x0_sc_by_lmax[-1]
        # the top-l shell: lmax against lmax - 1 (against 0 at lmax 0)
        trunc = abs(x0_sc - ([0j] + x0_sc_by_lmax)[-2]) / max(abs(x0_sc), 1e-300)
        onshell_rel = abs(x0_sc - x0) / abs(x0_sc)

    # born2_identity: born_term(2) sums one set of pair terms at eps_min; the
    # same sum with pair (0, 1) read from the lattice's alpha = 0 entry at
    # eps_min must agree with it
    eps_min = min(eps_seq)
    pairs = engine.pair_terms(eps_min) if num.n_max >= 2 else None
    born = [engine.born_term(n, eps_min, pairs) for n in range(1, num.n_max + 1)]
    born2_rel = None
    if pairs is not None:
        x01 = complex(lattice[eps_min][lattice_alphas.index(0.0)])
        pair_sum = sum(x01 if pair == (0, 1) else x for pair, x in pairs.items())
        born2_rel = abs(born[1] - pair_sum) / max(abs(born[1]), 1e-300)

    if overlapping:
        s_val, s_delta = schatten4_norm(sc.scatterers[0], sc.scatterers[1], sc.k0)
        schatten = {"method": "grid", "value": float(s_val),
                    "refinement_delta": float(s_delta)}
    else:
        R_len = float(np.linalg.norm(sc.scatterers[1].center_array
                                     - sc.scatterers[0].center_array))
        # the spectral norm at every k of the decay diagnostic; the value is k0's
        ks = [0.5 * sc.k0, sc.k0, 2.0 * sc.k0, 3.0 * sc.k0]
        pots = (sc.scatterers[0].potential, sc.scatterers[1].potential)
        values, deltas, lmaxes = zip(*schatten4_norm_spectral(*pots, ks, R_len))
        # every k's delta and final coarse l-truncation, in the order of the
        # report-only decay diagnostic's k_values
        schatten = {"method": "spectral", "value": values[1], "refinement_delta": deltas[1],
                    "refinement_deltas": list(deltas), "lmax": list(lmaxes),
                    "decay_diagnostic": schatten4_decay_diagnostic(ks, values)}

    # stage 5: the gates
    tol = num.tolerances
    if onshell_rel is not None:
        compare("onshell_equivalence", onshell_rel, tol["onshell_equivalence"])
        if phase_res:
            compare("phase_law", max(phase_res.values()), tol["phase_law"])
    compare("alpha_flatness", flat, tol["alpha_flatness"])
    compare("y_average", y_avg_rel, tol["y_average"])
    if born2_rel is not None:
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
        born2_identity_rel=born2_rel,
        schatten=schatten,
        diagnostics=diagnostics,
        comparisons=comparisons,
        passed=all(c["passed"] for c in comparisons),
    )


def _scenario_echo(engine: ScenarioEngine) -> dict:
    """Every Numerics field, with the values the run derives in place of the
    configured ones, plus the kinematics and the scatterers."""
    sc = engine.sc
    return {
        **asdict(sc.numerics),
        "eps_list": list(sc.eps_sequence()),
        "p_max": float(engine.p_max),
        "momentum_nodes": int(engine.grid.size),
        "k0": sc.k0,
        "dir_in": list(sc.dir_in),
        "dir_out": list(sc.dir_out),
        "scatterers": [
            {"center": list(s.center), "kind": s.potential.kind,
             "v0": s.potential.v0, "a": s.potential.a, "rc": s.potential.rc}
            for s in sc.scatterers],
    }
