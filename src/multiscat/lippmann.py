"""Momentum-space partial-wave Lippmann-Schwinger solver.

Plane waves are normalised as <x|k> = (2 pi)^{-3/2} e^{i k.x}, under which a
central potential has the partial-wave decomposition

    <k|V|k'> = sum_l (2l+1)/(4 pi) P_l(k^.k'^) V_l(k, k'),
    V_l(p, p') = (2/pi) * integral j_l(p r) V(r) j_l(p' r) r^2 dr,

and the partial-wave t-matrix solves the one-dimensional integral equation

    t_l(p, p'; z) = V_l(p, p') + integral dq q^2 V_l(p, q) t_l(q, p'; z) / (z - q^2).

The same (2/pi) constant maps the on-shell solution onto the phase-shift
amplitude: t_l(k0, k0; k0^2 + i0) = (2/pi) * [-sin(eta_l) e^{i eta_l} / k0].
That consistency (solved off-shell equation vs. radial phase shift) is
enforced by the test-suite, which pins every convention in this module.

One LS stage per potential: ``ls_spectrum(pot, lmax, grid, eps)`` builds
the panelled Gauss radial rule r (weights w_r) once, with
c = (2/pi) w_r r^2 V(r), and one Bessel table J[l, r, i] = j_l(p_i r) for
every l <= lmax, so V_l = J_l^T diag(c) J_l has rank at most n_r for
every l.  Every potential kind is v0 times a nonnegative shape, so c takes
only the sign s = sign(v0) (or 0) and V_l = s B^T B.  Collocation on a
panelled Gauss momentum grid q_i (weights w_i), plus the on-shell point
k0, is then a separable-expansion problem (Ernst, Shakin and Thaler, Phys.
Rev. C 8 (1973) 46) that is exact for this discretised operator:

    t_l(z) = B^T X(z) B,   (I - s A(z)) X(z) = s I,   A(z) = B diag(d) B^T,

with the weights d of ``ls_weights`` over the grid plus k0: Nystrom for
eps > 0, and for eps = 0 the Haftel-Tabakin on-shell subtraction (Nucl.
Phys. A158 (1970) 1).  The factors of every l come from one stacked QR
of diag(sqrt|c|) J_l along its long side and the SVD of the square
triangular factor alone, each l cut at numpy's ``matrix_rank`` tolerance,
so every potential kind solves in the numerical rank k <= min(n_r, n + 1)
of V_l (k = 0 for a zero potential), where one stacked Birman-Schwinger
eigenvalue count gives the grid bound states (``_bound_states``).  Zero
beyond each l's rank, the factors form one ``LSSpectrum``, whose (eps, l)
systems are solved in one ``np.linalg.solve``, each gated:
max|(I - s A) X - s I| above 1e-8 raises PoleProximityError, and which
forms its half-shell columns B^T X B[:, -1] itself.  The engine reads every
l at once from it, and no (n x n) t-matrix table is formed.
``solve_offshell_t`` is the direct route: ``vl_matrix`` assembles V_l
alone, and one LU solve of the full collocation system gives the
half-shell column at one z, with the same weights.  The engine's one
cross-check per distinct potential compares the factorised column
against it, and so the B and X it is formed from.

``ls_weights`` is the one copy of R0(z) = (z - q^2)^{-1} on the momentum
rule.  ``_solve`` and ``solve_offshell_t`` read it, and ``multiscatter``
reads its eps > 0 grid columns in ``ScenarioEngine.x_lattice`` (every eps
at once) and in ``ScenarioEngine._born3`` (both free propagations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscat.potentials import Potential
from multiscat.specfun import bessel_j_table, gauss_panels, octave_edges


class PoleProximityError(RuntimeError):
    """The LS solve is inaccurate: z may sit near a bound-state pole."""


@dataclass(frozen=True)
class ComplexEnergy:
    """z = k0^2 + i*eps with k0 > 0, eps >= 0."""

    k0: float
    eps: float = 0.0

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    @property
    def z(self) -> complex:
        return complex(self.k0 * self.k0, self.eps)


@dataclass(frozen=True)
class MomentumGrid:
    """Panelled Gauss-Legendre grid on [0, p_max] for the LS kernel.

    Panels split at k0 and 2*k0 so nodes cluster near the on-shell point
    (where the resolvent peaks as eps shrinks) and never coincide with it.
    """

    nodes: np.ndarray
    weights: np.ndarray
    k0: float
    p_max: float

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("momentum nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("momentum weights must be positive")
        if np.any(np.abs(self.nodes - self.k0) < 1e-12):
            raise ValueError("k0 must not coincide with a quadrature node")

    @classmethod
    def build(cls, k0: float, p_max: float, n_inner: int = 64, n_mid: int = 48,
              osc_scale: float = 1.0) -> "MomentumGrid":
        if k0 <= 0:
            raise ValueError("k0 must be positive")
        if p_max <= 2 * k0:
            raise ValueError("p_max must exceed 2*k0")
        # resolve oscillations e^{i q * osc_scale} on the outer panel
        n_outer = max(96, int(0.75 * (p_max - 2 * k0) * max(osc_scale, 1.0)) + 32)
        nodes, weights = gauss_panels((0.0, k0, 2 * k0, p_max), (n_inner, n_mid, n_outer))
        return cls(nodes=nodes, weights=weights, k0=float(k0), p_max=float(p_max))

    @property
    def size(self) -> int:
        return self.nodes.size


# ---------------------------------------------------------------------------
# partial-wave potential matrix elements
# ---------------------------------------------------------------------------

def _radial_rule(pot: Potential, p_top: float, scale: int):
    """Panelled Gauss nodes r resolving j_l(p_top * r) over the support, and
    c = (2/pi) w r^2 V(r) on them: the rule of V_l for the LS stage and of
    the spectral norm's (pi/2)|V_l(k, k)|, whose refined level reads scale 2."""
    full = octave_edges(pot.support_edges())
    rs, ws = gauss_panels(full, [scale * max(24, int(0.7 * (b - a) * p_top) + 16)
                                 for a, b in zip(full[:-1], full[1:])])
    return rs, (2.0 / np.pi) * ws * rs * rs * pot.evaluate(rs)


def vl_matrix(pot: Potential, l: int, momenta, scale: int = 1) -> np.ndarray:
    """V_l(p_i, p_j) = (2/pi) integral j_l(p_i r) V(r) j_l(p_j r) r^2 dr, as J^T diag(c) J.

    J[r, i] = j_l(p_i r) on the nodes r of ``_radial_rule``, read from the
    order-l Bessel table.
    """
    momenta = np.asarray(momenta, dtype=float)
    rs, c = _radial_rule(pot, float(momenta.max()), scale)
    J = bessel_j_table(l, np.outer(rs, momenta))[l]
    out = (J.T * c) @ J
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# LS weights and the factorised solves
# ---------------------------------------------------------------------------

def ls_weights(grid: MomentumGrid, eps) -> np.ndarray:
    """Weights d of the LS kernel over the grid nodes plus k0, one row per eps.

    eps > 0 (Nystrom): d_i = w_i q_i^2 / (z - q_i^2) and 0 on the k0 column.
    eps = 0 (Haftel-Tabakin): d_i = w_i q_i^2 / (k0^2 - q_i^2), and on the
    k0 column the analytic principal-value counter-term
    k0^2 (log((p_max + k0)/(p_max - k0)) / (2 k0) - sum_i w_i / (k0^2 - q_i^2))
    plus the -i pi k0 / 2 half-residue.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0):
        raise ValueError("eps must be nonnegative")
    q, w, k0 = grid.nodes, grid.weights, grid.k0
    d = np.zeros((eps.size, q.size + 1), dtype=complex)
    d[:, :-1] = w * q * q / ((k0 ** 2 + 1j * eps)[:, None] - q * q)
    log_term = np.log((grid.p_max + k0) / (grid.p_max - k0)) / (2.0 * k0)
    d[eps == 0, -1] = (k0 * k0 * (log_term - np.sum(w / (k0 * k0 - q * q)))
                       - 0.5j * np.pi * k0)
    return d


@dataclass(frozen=True)
class LSSpectrum:
    """t_l(p, p'; k0^2 + i eps) = B_l^T X_l(eps) B_l for every l <= lmax of one potential.

    Rows and columns of t run over the grid nodes plus the on-shell point k0
    (the last column of B).  Each l's factor B_l of V_l = s B_l^T B_l, of the
    numerical rank ``rank[l]`` of V_l, is zero-padded to the largest rank k.
    ``X`` holds the solves at ``eps`` (eps = 0 when asked for), and ``half``
    the half-shell columns t_l(q_i, k0; eps) = B_l^T X_l(eps) B_l[:, -1],
    which the spectrum forms itself (it takes no ``half``); ``eps`` are the
    only eps they answer for: any other raises ValueError.  ``bound_states[l]``
    counts the bound states of V_l on the grid (``_bound_states``), and
    ``residual`` is the worst solve residual.  ``B``, ``X`` and ``half`` are read-only.
    """

    B: np.ndarray = field(repr=False)         # (lmax + 1, k, n + 1) real
    eps: tuple
    X: np.ndarray = field(repr=False)         # (len(eps), lmax + 1, k, k) complex
    rank: tuple
    bound_states: tuple
    residual: float
    half: np.ndarray = field(init=False, repr=False)  # (len(eps), lmax + 1, n + 1) complex

    def __post_init__(self):
        object.__setattr__(self, "half", _half_shell(self.B, self.X))
        for table in (self.B, self.X, self.half):
            table.flags.writeable = False

    def _rows(self, eps):
        """The index of each eps in ``eps`` of the stage, in the shape of ``eps``."""
        if not set(np.ravel(eps)) <= set(self.eps):
            raise ValueError(f"t_l was solved at eps in {self.eps}, not at {eps}")
        return np.array([self.eps.index(e) for e in np.ravel(eps)],
                        dtype=int).reshape(np.shape(eps))

    def x(self, eps) -> np.ndarray:
        """X_l(eps) of every l, (lmax + 1, k, k), with a leading axis for a sequence of eps."""
        return self.X[self._rows(eps)]

    def half_shell(self, eps) -> np.ndarray:
        """t_l(p_i, k0; k0^2 + i eps) of every l over the grid plus k0, (lmax + 1, n + 1),
        with a leading axis for a sequence of eps."""
        return self.half[self._rows(eps)]

    def on_shell(self, eps: float) -> np.ndarray:
        """t_l(k0, k0; k0^2 + i eps) of every l, (lmax + 1,)."""
        return self.half_shell(eps)[:, -1]


def _solve(B: np.ndarray, s: float, rank: tuple, grid: MomentumGrid, eps: tuple) -> tuple:
    """X(z) solving (I - s A(z)) X = s I on each l's rank at every (eps, l), in one stacked solve.

    A(z) = B diag(d) B^T with the weights d of ``ls_weights``: Nystrom for
    eps > 0, Haftel-Tabakin for eps = 0.  The right-hand side is zero past
    each rank, so X is too.  The systems and residuals are formed one eps
    at a time.  Returns (X, worst residual); raises PoleProximityError when
    max|(I - s A) X - s I| exceeds 1e-8.
    """
    d = ls_weights(grid, eps)
    k = B.shape[1]
    rhs = s * (np.arange(k) < np.array(rank)[:, None, None]) * np.eye(k)
    L = np.empty((len(eps),) + rhs.shape, dtype=complex)
    Bt = B.transpose(0, 2, 1)
    for Le, dr, di in zip(L, s * d.real, s * d.imag):
        # s A(z) from two real products per z
        Le[:] = np.eye(k) - ((B * dr) @ Bt + 1j * ((B * di) @ Bt))
    try:
        X = np.linalg.solve(L, rhs)
    except np.linalg.LinAlgError as exc:
        raise PoleProximityError(f"LS system singular: {exc}") from exc
    resid = np.array([np.max(np.abs(Le @ Xe - rhs), axis=(1, 2), initial=0.0)
                      for Le, Xe in zip(L, X)])
    if not np.all(resid <= 1e-8):
        e, l = np.unravel_index(np.argmax(np.nan_to_num(resid, nan=np.inf)), resid.shape)
        raise PoleProximityError(
            f"LS solve inaccurate at eps={eps[e]:.3g}, l={l} (residual {resid[e, l]:.2e}); "
            "z may sit near a bound-state pole")
    return X, float(np.max(resid, initial=0.0))


def _bound_states(B: np.ndarray, s: float, grid: MomentumGrid) -> tuple:
    """Negative eigenvalues of H_l = diag(q^2) + S V_l S (S = diag(sqrt(w) q)) for every l.

    With D = diag(q^2) and M = B_g diag(sqrt(w)), H = D^{1/2} (I + s M^T M)
    D^{1/2}.  For s >= 0, H >= D has none.  For s < 0, by Sylvester's law
    of inertia, the count is that of the singular values of M above 1: the
    eigenvalues above 1 of the (k x k) Birman-Schwinger matrix M M^T
    (Birman 1961; Schwinger 1961), one stacked ``eigvalsh`` over every l.
    """
    if s >= 0:
        return (0,) * B.shape[0]
    M = B[:, :, :-1] * np.sqrt(grid.weights)
    counts = np.sum(np.linalg.eigvalsh(M @ M.transpose(0, 2, 1)) > 1.0, axis=-1)
    return tuple(int(v) for v in counts)


def _factors(pot: Potential, lmax: int, grid: MomentumGrid) -> tuple:
    """(B, s, rank, bound_states) of V_l = s B_l^T B_l for every l <= lmax, s = sign(v0).

    One radial rule (``_radial_rule``) and one Bessel table give
    V_l = s M_l^T M_l, M_l = diag(sqrt|c|) J_l, since c takes only the sign
    of v0 (or 0).  One stacked QR along each M_l's long side and the SVD of
    its square triangular factor alone give the singular values of M_l
    without its long singular vectors (Chan, ACM TOMS 8 (1982) 72): a wide
    M_l (n_r < n + 1) is R^T Q^T with R^T = U S V'^T, so B_l = U_k^T M_l; a
    tall one is Q R with R = U' S W^T, so B_l = S_k W_k^T.  Each l is cut
    at numpy's ``matrix_rank`` tolerance to its rank k_l, and B is
    (lmax + 1, k, n + 1), with k = max k_l and zeros beyond each k_l.
    """
    momenta = np.concatenate([grid.nodes, [grid.k0]])
    rs, c = _radial_rule(pot, float(momenta.max()), 1)
    M = bessel_j_table(lmax, np.outer(rs, momenta))
    M *= np.sqrt(np.abs(c))[:, None]
    wide = M.shape[1] < M.shape[2]
    R = np.linalg.qr(M.transpose(0, 2, 1) if wide else M, mode="r")
    # R = U_R S Wt: a wide M_l has R^T = Wt^T S U_R^T, so the rows of Wt are
    # U^T there, and W^T of a tall one
    sv, Wt = np.linalg.svd(R)[1:]
    keep = sv > sv[:, :1] * max(M.shape[1:]) * np.finfo(float).eps
    rank = tuple(int(r) for r in keep.sum(axis=1))
    k = max(rank)
    B = Wt[:, :k] @ M if wide else sv[:, :k, None] * Wt[:, :k]
    B[~keep[:, :k]] = 0.0
    s = float(np.sign(pot.v0))
    return B, s, rank, _bound_states(B, s, grid)


def _half_shell(B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """B_l^T X_l B_l[:, -1] of every l, and of every eps on a leading axis of X.

    Two real products with B: B is never copied to complex.
    """
    xb = X @ B[:, :, -1:]
    Bt = B.transpose(0, 2, 1)
    return (Bt @ xb.real + 1j * (Bt @ xb.imag))[..., 0]


def ls_spectrum(pot: Potential, lmax: int, grid: MomentumGrid, eps) -> LSSpectrum:
    """The LS stage of one potential: t_l for l = 0..lmax at every eps in ``eps``.

    Every (eps, l) system (I - s A) X = s I of the stacked factors of
    V_l = s B^T B (``_factors``), eps = 0 by the Haftel-Tabakin weights, is
    solved in one ``_solve``, which raises PoleProximityError when a solve
    residual exceeds 1e-8.
    """
    B, s, rank, bound = _factors(pot, lmax, grid)
    eps = tuple(eps)
    X, resid = _solve(B, s, rank, grid, eps)
    # copied once the solve's temporaries are freed, X takes their heap space
    # instead of stranding it below itself for the rest of the run
    X = X.copy()
    return LSSpectrum(B=B, eps=eps, X=X, rank=rank, bound_states=bound, residual=resid)


# ---------------------------------------------------------------------------
# the direct route
# ---------------------------------------------------------------------------

def solve_offshell_t(pot: Potential, l: int, z: ComplexEnergy,
                     grid: MomentumGrid) -> np.ndarray:
    """t_l(p_i, k0; z) over the grid nodes plus k0 (the half-shell column), solved directly.

    ``vl_matrix`` assembles V_l on the grid plus k0 and one LU solve of the
    full collocation system (I - V diag(d)) t = V e_k0, with the weights d
    of ``ls_weights``, gives the column alone; the system matrix is built
    in place as -V diag(d) with 1 added on its diagonal.  Raises
    PoleProximityError when its residual max|(I - V diag(d)) t - V e_k0| /
    max|V e_k0| exceeds 1e-8.
    """
    if abs(grid.k0 - z.k0) > 1e-12:
        raise ValueError("grid and energy disagree about k0")
    V = vl_matrix(pot, l, np.concatenate([grid.nodes, [z.k0]]))
    A = V * -ls_weights(grid, [z.eps])
    A.flat[::A.shape[0] + 1] += 1.0
    v = V[:, -1]
    try:
        t = np.linalg.solve(A, v.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise PoleProximityError(f"LS system singular at z={z.z}: {exc}") from exc
    resid = np.max(np.abs(A @ t - v)) / max(np.max(np.abs(v)), 1e-300)
    if resid > 1e-8:
        raise PoleProximityError(
            f"LS solve ill-conditioned at z={z.z} (residual {resid:.2e}); "
            "z may sit near a bound-state pole")
    return t
