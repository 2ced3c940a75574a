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

For eps > 0 the resolvent denominator is smooth and Nystrom collocation
on a panelled Gauss grid q_i (weights w_i) gives, with S = diag(sqrt(w) q)
and the real symmetric H = diag(q^2) + S V_gg S = Q diag(lambda) Q^T,

    t_l(z) = V + U diag(1 / (z - lambda)) U^T,   U = V[:, grid] S Q,

on the grid nodes plus the on-shell point.  H does not depend on z, so one
``ls_spectrum`` (one ``eigh``) per (potential, l) serves every eps; the
engine reads all its half-shell columns, on-shell elements and Born-3
blocks from it.  ``solve_offshell_t`` is the direct route: one LU solve of
the collocation system per z.  For eps = 0 it handles the principal value
by on-shell subtraction (Haftel-Tabakin: regularised integrand plus an
analytic counter-term and the -i pi k0/2 half-residue).  It serves as the
independent reference: the tests, and the engine's one cross-check per
distinct potential, compare the spectral columns against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscat.greens import ComplexEnergy
from multiscat.potentials import Potential
from multiscat.specfun import bessel_j, gauss_panels


class PoleProximityError(RuntimeError):
    """The LS solve or eigendecomposition is inaccurate: z may sit near a bound-state pole."""


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


def vl_matrix(pot: Potential, l: int, momenta, scale: int = 1) -> np.ndarray:
    """V_l(p_i, p_j) = (2/pi) integral j_l(p_i r) V(r) j_l(p_j r) r^2 dr."""
    momenta = np.asarray(momenta, dtype=float)
    rs, ws = _radial_rule(pot, float(momenta.max()), scale)
    # j_l alone: no (l + 1, n_r, n_q) table of the lower orders is formed
    J = bessel_j(l, np.outer(rs, momenta))
    core = ws * rs * rs * pot.evaluate(rs)
    out = (2.0 / np.pi) * (J.T * core) @ J
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# spectral form for eps > 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LSSpectrum:
    """t_l(p, p'; z) = V + U diag(1/(z - lam)) U^T for every z with Im z > 0.

    Rows and columns run over the grid nodes plus the on-shell point k0
    (the last index).  ``residual`` is the eigen-residual of H.
    """

    lam: np.ndarray = field(repr=False)       # eigenvalues of H, ascending
    U: np.ndarray = field(repr=False)         # (n + 1, n)
    V: np.ndarray = field(repr=False)         # (n + 1, n + 1)
    residual: float

    def _resolvent(self, z: complex) -> np.ndarray:
        if not z.imag > 0:
            raise ValueError("the spectral form needs Im z > 0; "
                             "use solve_offshell_t for eps = 0")
        return 1.0 / (z - self.lam)

    def half_shell(self, z: complex) -> np.ndarray:
        """t_l(p_i, k0; z) for all momenta (the symmetric half-shell column)."""
        return self.V[:, -1] + _times_real(self.U[-1] * self._resolvent(z), self.U.T)

    def on_shell(self, z: complex) -> complex:
        """t_l(k0, k0; z), the last entry of the half-shell column."""
        return complex(self.half_shell(z)[-1])

    def grid_sandwich(self, a: np.ndarray, b: np.ndarray, z: complex) -> complex:
        """sum_{m,i,k} a[m, i] t_l(q_i, q_k; z) b[m, k] over the grid nodes.

        Evaluated from the spectrum, without forming the table.
        """
        U = self.U[:-1]
        return complex(np.sum(_times_real(a, self.V[:-1, :-1]) * b)
                       + np.sum(_times_real(a, U) * self._resolvent(z) * _times_real(b, U)))


def _times_real(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M for complex x and real M, without promoting M to complex."""
    return x.real @ M + 1j * (x.imag @ M)


def ls_spectrum(pot: Potential, l: int, grid: MomentumGrid) -> LSSpectrum:
    """One symmetric eigendecomposition behind t_l(z) at every eps > 0.

    Raises PoleProximityError when the eigen-residual
    max|HQ - Q Lambda| / max|H| exceeds 1e-8.
    """
    q = grid.nodes
    V = vl_matrix(pot, l, np.concatenate([q, [grid.k0]]))
    s = np.sqrt(grid.weights) * q
    H = s[:, None] * V[:-1, :-1] * s
    H[np.diag_indices_from(H)] += q * q
    lam, Q = np.linalg.eigh(H)
    resid = np.max(np.abs(H @ Q - Q * lam)) / max(np.max(np.abs(H)), 1e-300)
    if not resid <= 1e-8:
        raise PoleProximityError(
            f"LS eigendecomposition inaccurate for l={l} (residual {resid:.2e})")
    return LSSpectrum(lam=lam, U=(V[:, :-1] * s) @ Q, V=V, residual=float(resid))


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
