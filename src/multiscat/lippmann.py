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

V_l is assembled once, on a panelled Gauss radial rule r (weights w_r):
``vl_factors`` returns J[r, i] = j_l(p_i r) and c = (2/pi) w_r r^2 V(r), and
``vl_matrix`` is J^T diag(c) J, so V_l has rank at most n_r.  For eps > 0
Nystrom collocation on a panelled Gauss momentum grid q_i (weights w_i),
plus the on-shell point k0, is then a separable-expansion problem (Ernst,
Shakin and Thaler, Phys. Rev. C 8 (1973) 46) that is exact for this
discretised operator: with V = B^T C B,

    t_l(z) = B^T X(z) B,   (I - C A(z)) X(z) = C,
    A(z) = B_g diag(w q^2 / (z - q^2)) B_g^T,

B_g the grid columns of B.  ``ls_spectrum`` takes (B, C) = (J, diag(c))
when n_r <= n + 1, else (I, V) (the exponential and truncated-Coulomb
rules are longer than the grid), so every solve runs in the smaller rank.
It solves every eps of a run in one batched ``np.linalg.solve`` and gates
each: max|(I - C A) X - C| / max|C| above 1e-8 raises PoleProximityError.
One ``eigvalsh`` of H = diag(q^2) + S V_gg S (S = diag(sqrt(w) q)) gives
the grid spectrum behind the engine's health numbers: bound-state counts
and the level spacing near k0^2.  The engine reads all its half-shell
columns, on-shell elements and Born-3 blocks from these solves, and no
(n x n) table is formed.  ``solve_offshell_t`` is the direct route: one LU
solve of the full collocation system per z.  For eps = 0 it handles the
principal value by on-shell subtraction (Haftel-Tabakin: regularised
integrand plus an analytic counter-term and the -i pi k0/2 half-residue).
It serves as the independent reference: the tests, and the engine's one
cross-check per distinct potential, compare the factorised columns
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscat.greens import ComplexEnergy
from multiscat.potentials import Potential
from multiscat.specfun import bessel_j, gauss_panels


class PoleProximityError(RuntimeError):
    """The LS solve is inaccurate: z may sit near a bound-state pole."""


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
              n_outer: int | None = None, osc_scale: float = 1.0) -> "MomentumGrid":
        if k0 <= 0:
            raise ValueError("k0 must be positive")
        if p_max <= 2 * k0:
            raise ValueError("p_max must exceed 2*k0")
        if n_outer is None:
            # resolve oscillations e^{i q * osc_scale} on the outer panel
            n_outer = max(96, int(0.75 * (p_max - 2 * k0) * max(osc_scale, 1.0)) + 32)
        nodes, weights = gauss_panels((0.0, k0, 2 * k0, p_max), (n_inner, n_mid, n_outer))
        return cls(nodes=nodes, weights=weights, k0=float(k0), p_max=float(p_max))

    @property
    def size(self) -> int:
        return self.nodes.size


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


# ---------------------------------------------------------------------------
# partial-wave potential matrix elements
# ---------------------------------------------------------------------------

def _radial_rule(pot: Potential, p_top: float, scale: int):
    """Panelled Gauss nodes resolving j_l(p_top * r) over the support."""
    r_eff = pot.effective_radius() or pot.a   # V = 0: any panel integrates 0
    edges = sorted({0.0, *[b for b in pot.breakpoints() if b < r_eff], r_eff})
    # extend smooth tails in octaves so node budgets track the local scale
    full = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        while a > 0 and b / a > 2.5:
            a *= 2.0
            full.append(min(a, b))
        full.append(b)
    full = sorted(set(full))
    return gauss_panels(full, [scale * max(24, int(0.7 * (b - a) * p_top) + 16)
                               for a, b in zip(full[:-1], full[1:])])


def vl_factors(pot: Potential, l: int, momenta, scale: int = 1):
    """(J, c) with V_l(p_i, p_j) = sum_r J[r, i] c[r] J[r, j] on the radial rule.

    J[r, i] = j_l(p_i r) and c = (2/pi) w r^2 V(r) on the panelled Gauss
    nodes r of ``_radial_rule``, so V_l has rank at most the node count.
    """
    momenta = np.asarray(momenta, dtype=float)
    rs, ws = _radial_rule(pot, float(momenta.max()), scale)
    # j_l alone: no (l + 1, n_r, n_q) table of the lower orders is formed
    J = bessel_j(l, np.outer(rs, momenta))
    return J, (2.0 / np.pi) * ws * rs * rs * pot.evaluate(rs)


def vl_matrix(pot: Potential, l: int, momenta, scale: int = 1) -> np.ndarray:
    """V_l(p_i, p_j) = (2/pi) integral j_l(p_i r) V(r) j_l(p_j r) r^2 dr, as J^T C J."""
    return _jcj(*vl_factors(pot, l, momenta, scale))


def _jcj(J: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The symmetric J^T diag(c) J."""
    out = (J.T * c) @ J
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# factorised solves for eps > 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LSSpectrum:
    """t_l(p, p'; k0^2 + i eps) = B^T X(eps) B from solves in the rank of V_l.

    Rows and columns of t run over the grid nodes plus the on-shell point k0
    (the last column of B).  ``X`` holds the solves at the eps values
    ``eps``; any other eps > 0 is solved when asked for and not kept.
    ``lam`` are the eigenvalues of H = diag(q^2) + S V S (the grid
    spectrum, for the health numbers) and ``residual`` the worst solve
    residual.
    """

    B: np.ndarray = field(repr=False)         # (r, n + 1) real
    C: np.ndarray = field(repr=False)         # (r, r) real symmetric
    grid: MomentumGrid = field(repr=False)
    eps: tuple
    X: np.ndarray = field(repr=False)         # (len(eps), r, r) complex
    lam: np.ndarray = field(repr=False)       # eigenvalues of H, ascending
    residual: float

    def _x(self, eps: float) -> np.ndarray:
        if eps in self.eps:
            return self.X[self.eps.index(eps)]
        return _solve(self.B, self.C, self.grid, (eps,))[0][0]

    def half_shell(self, eps: float) -> np.ndarray:
        """t_l(p_i, k0; k0^2 + i eps) for all momenta (the symmetric half-shell column)."""
        return _times_real(self._x(eps) @ self.B[:, -1], self.B)

    def on_shell(self, eps: float) -> complex:
        """t_l(k0, k0; k0^2 + i eps)."""
        b = self.B[:, -1]
        return complex(b @ self._x(eps) @ b)

    def grid_sandwich(self, a: np.ndarray, b: np.ndarray, eps: float) -> complex:
        """sum_{m,i,k} a[m, i] t_l(q_i, q_k; k0^2 + i eps) b[m, k] over the grid nodes.

        Evaluated in the rank of the factors, without forming the table.
        """
        Bg = self.B[:, :-1].T
        return complex(np.sum((_times_real(a, Bg) @ self._x(eps)) * _times_real(b, Bg)))


def _times_real(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M for complex x and real M, without promoting M to complex."""
    return x.real @ M + 1j * (x.imag @ M)


def _solve(B: np.ndarray, C: np.ndarray, grid: MomentumGrid, eps) -> tuple:
    """X(z) solving (I - C A(z)) X = C at every z = k0^2 + i eps, in one batched solve.

    A(z) = B_g diag(w q^2 / (z - q^2)) B_g^T, B_g the grid columns of B.
    Returns (X, worst residual); raises PoleProximityError when
    max|(I - C A) X - C| / max|C| exceeds 1e-8 at any z.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0):
        raise ValueError("the factorised solve needs eps > 0; "
                         "use solve_offshell_t for eps = 0")
    q = grid.nodes
    Bg = B[:, :-1]
    d = grid.weights * q * q / ((grid.k0 ** 2 + 1j * eps)[:, None] - q * q)
    CB = C @ Bg
    # C A(z) from two real products per z
    L = np.eye(C.shape[0]) - ((CB * d.real[:, None, :]) @ Bg.T
                              + 1j * ((CB * d.imag[:, None, :]) @ Bg.T))
    try:
        X = np.linalg.solve(L, np.broadcast_to(C, L.shape))
    except np.linalg.LinAlgError as exc:
        raise PoleProximityError(f"LS system singular: {exc}") from exc
    scale = max(np.max(np.abs(C)), 1e-300)
    resid = np.max(np.abs(L @ X - C), axis=(1, 2)) / scale
    if not np.all(resid <= 1e-8):
        worst = int(np.argmax(np.nan_to_num(resid, nan=np.inf)))
        raise PoleProximityError(
            f"LS solve inaccurate at eps={eps[worst]:.3g} (residual {resid[worst]:.2e}); "
            "z may sit near a bound-state pole")
    return X, float(np.max(resid))


def ls_spectrum(pot: Potential, l: int, grid: MomentumGrid, eps) -> LSSpectrum:
    """t_l at every eps in ``eps`` from one batched solve in the rank of V_l.

    V_l = J^T C J on the radial rule (``vl_factors``).  With n_r radial
    nodes and n grid nodes, the factors are (B, C) = (J, diag(c)) when
    n_r <= n + 1, else (I, V_l): the solves run in the smaller of the two
    ranks.  One eigvalsh of H gives the grid spectrum behind the health
    numbers.  Raises PoleProximityError when a solve residual exceeds 1e-8.
    """
    q = grid.nodes
    J, c = vl_factors(pot, l, np.concatenate([q, [grid.k0]]))
    if J.shape[0] <= J.shape[1]:
        B, C = J, np.diag(c)
    else:
        B, C = np.eye(q.size + 1), _jcj(J, c)
    eps = tuple(eps)
    X, resid = _solve(B, C, grid, eps)
    G = B[:, :-1] * (np.sqrt(grid.weights) * q)
    H = G.T @ C @ G
    H[np.diag_indices_from(H)] += q * q
    return LSSpectrum(B=B, C=C, grid=grid, eps=eps, X=X, lam=np.linalg.eigvalsh(H),
                      residual=resid)


# ---------------------------------------------------------------------------
# Nystrom / principal-value solver
# ---------------------------------------------------------------------------

def solve_offshell_t(pot: Potential, l: int, z: ComplexEnergy,
                     grid: MomentumGrid) -> OffshellTable:
    """Solve the partial-wave LS equation on the grid (plus on-shell point).

    eps > 0: straight Nystrom collocation.  eps = 0: Haftel-Tabakin
    on-shell subtraction with the analytic principal-value counter-term
    and the -i pi k0 / 2 half-residue.
    """
    if abs(grid.k0 - z.k0) > 1e-12:
        raise ValueError("grid and energy disagree about k0")
    q = grid.nodes
    w = grid.weights
    k0 = z.k0
    momenta = np.concatenate([q, [k0]])
    V = vl_matrix(pot, l, momenta)
    n = momenta.size

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
    return OffshellTable(l=l, z=z, momenta=momenta, values=T)
