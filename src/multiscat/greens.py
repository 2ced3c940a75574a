"""Two-center sandwich kernels, structure constants, Schatten-4 norms.

The free resolvent at z = k0^2 + i*eps has the coordinate kernel

    <x|R0(z)|y> = -exp(i sqrt(z) |x-y|) / (4 pi |x-y|),

with sqrt(z) taken so Im sqrt(z) >= 0 (upper boundary value on the cut).
Sandwiched between the factorisations of two potentials it becomes the
two-center kernel

    <x|K(z)|y> = phi_j(x) exp(i sqrt(z) |x-y|) / (4 pi i |x-y|) phi_h(y),

whose Schatten-4 norm [tr (K*K)^2]^{1/4} is the compactness diagnostic for
overlapping potentials.  For disjoint supports the resolvent kernel
re-expands in displaced spherical waves,

    -e^{i k |x-y|}/(4 pi |x-y|) = sum_{lm,l'm'} j_l(k|x|) Y_lm(x^)
        g_{lm;l'm'}(k, R) j_l'(k|y-R|) conj(Y_l'm'((y-R)^)),

valid for |x| + |y-R| < |R|; the re-expansion coefficients g (structure
constants) are assembled here by a Gaunt contraction over outgoing waves
h+_L(k|R|) Y_LM(R^), and that pointwise identity - not any printed formula -
is what the test-suite validates them against.

One kernel computes that contraction, one azimuthal pair (m, m') at a
time: ``_gaunt_integrals`` gets every Gaunt integral of the pair from a
single matrix product on a Gauss-Legendre rule, and ``_g_block`` contracts
it over L.  ``structure_constants`` calls it for each (m, m') whose
Y_LM(R^) column is nonzero (only m = m' when R lies on the z axis); the
spectral Schatten norm calls it once per m with R along z and never builds
the dense matrix.  The Gaunt table does not depend on k, so the spectral
norm builds each m's table once for all its k and slices it for the
smaller truncations.  The triangle and parity zeros of the Gaunt table are
imposed exactly, not left to the quadrature: once L exceeds k|R|, h+_L
grows like (2L-1)!!/(k|R|)^{L+1}, so roundoff of 1e-16 in a forbidden
entry would be amplified past every allowed one.

Both Schatten-4 norms are (sum_m mult_m ||B_m^H B_m||_F^2)^{1/4} over
per-m blocks, each term from one helper, ``_sigma4``.  The spectral norm
(disjoint supports) sums the |V|-weighted blocks g_m with R along z,
counting the +/-m pair twice.  The grid norm (overlapping supports) sums
the azimuthal Fourier blocks of the quadrature-discretised kernel, each
once; they come from the kernel's first phi column on ball
grids built with R on the polar axis, so the value does not depend on the
pair's orientation and no (n_nodes x n_nodes) matrix is formed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from multiscat.potentials import Potential, Scatterer
from multiscat.specfun import (
    AngularGrid,
    bessel_j_table,
    bessel_y_table,
    gauss_legendre,
    gauss_panels,
    plm_norm_table,
    sph_index,
    tri_index,
    ylm_table,
)


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

    @property
    def sqrt_z(self) -> complex:
        # principal sqrt keeps Im >= 0 on the upper rim of the cut
        return complex(np.sqrt(complex(self.k0 * self.k0, self.eps)))


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

@dataclass
class StructureConstantMatrix:
    """g_{lm;l'm'}(k0, R) for l, l' <= lmax.

    ``matrix`` is indexed by ``sph_index(l, m)`` on the first center (at the
    origin) and ``sph_index(l', m')`` on the second (at R).
    """

    k0: float
    R: tuple[float, float, float]
    lmax: int
    matrix: np.ndarray = field(repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["l", "m", "lp", "mp", "re_g", "im_g"])
            for l in range(self.lmax + 1):
                for m in range(-l, l + 1):
                    for lp in range(self.lmax + 1):
                        for mp in range(-lp, lp + 1):
                            v = self.matrix[sph_index(l, m), sph_index(lp, mp)]
                            wr.writerow([l, m, lp, mp,
                                         f"{v.real:.16e}", f"{v.imag:.16e}"])


def _neg_sign(m):
    """Parity factor relating Y_{l,-|m|} to the positive-m Legendre row."""
    m = np.asarray(m)
    return np.where(m < 0, (-1.0) ** np.abs(m), 1.0)


def _ipow(n):
    """Exact powers of the imaginary unit, i^n, for integer n (array or scalar)."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.asarray(n) % 4]


@lru_cache(maxsize=1)
def _legendre_rule(lmax: int):
    """Normalised P_LM for L <= 2 lmax on Gauss-Legendre nodes exact to degree 6 lmax.

    Both callers sweep the azimuthal pairs of one lmax, so one cached table
    serves a whole sweep.
    """
    Lmax = 2 * lmax
    xg, wg = gauss_legendre(Lmax + Lmax // 2 + 8)
    return plm_norm_table(Lmax, xg), wg


def _gaunt_integrals(m: int, mp: int, lmax: int) -> np.ndarray:
    """G[l, l', L] = integral of Y_lm conj(Y_l'm') conj(Y_LM) over the sphere.

    M = m - m'; the axes run over l = |m|..lmax, l' = |m'|..lmax and
    L = |M|..2 lmax.  One matrix product on the Gauss-Legendre rule gives
    every Legendre triple integral at once; the entries that the triangle
    and parity rules forbid are then set to exact zeros (see the module
    docstring for why that mask cannot be left to the quadrature).
    """
    M = m - mp
    plm, w = _legendre_rule(lmax)
    ls = np.arange(abs(m), lmax + 1)
    lps = np.arange(abs(mp), lmax + 1)
    Ls = np.arange(abs(M), 2 * lmax + 1)
    pairs = (plm[tri_index(ls, abs(m))][:, None, :]
             * plm[tri_index(lps, abs(mp))][None, :, :]).reshape(-1, w.size)
    I = (pairs @ (w * plm[tri_index(Ls, abs(M))]).T).reshape(ls.size, lps.size, Ls.size)
    lsum = ls[:, None, None] + lps[None, :, None]
    allowed = ((Ls >= np.abs(ls[:, None, None] - lps[None, :, None]))
               & (Ls <= lsum) & ((lsum + Ls) % 2 == 0))
    sign = _neg_sign(m) * _neg_sign(mp) * _neg_sign(M)
    return np.where(allowed, (2.0 * np.pi * sign) * I, 0.0)


def _outgoing_waves(k: float, R, Lmax: int) -> np.ndarray:
    """c[sph_index(L, M)] = i^{-L} (-1)^L h+_L(k|R|) conj(Y_LM(R^)), L <= Lmax."""
    Rv = np.asarray(R, dtype=float)
    Ls = np.arange(Lmax + 1)
    x = k * float(np.linalg.norm(Rv))
    hL = bessel_j_table(Lmax, x) + 1j * bessel_y_table(Lmax, x)
    # (-1)^L: the inner argument enters the one-center expansion through
    # its antipode
    coef = _ipow(-Ls) * (-1.0) ** Ls * hL
    return np.repeat(coef, 2 * Ls + 1) * np.conj(ylm_table(Lmax, Rv))


def _g_block(k: float, c: np.ndarray, G: np.ndarray, m: int, mp: int,
             lmax: int) -> np.ndarray:
    """Structure constants g_{lm;l'm'} of one azimuthal pair (m, m').

    Rows run over l = |m|..lmax and columns over l' = |m'|..lmax; ``c`` is
    ``_outgoing_waves(k, R, 2 lmax)`` and ``G`` is ``_gaunt_integrals(m, m',
    lmax)``.  The phase i^{l+l'-L} factorises, so the L-sum is one
    contraction of the Gaunt table with c.
    """
    M = m - mp
    ls = np.arange(abs(m), lmax + 1)
    lps = np.arange(abs(mp), lmax + 1)
    cM = c[sph_index(np.arange(abs(M), 2 * lmax + 1), M)]
    # two real products: G is never copied to complex
    contracted = G @ cM.real + 1j * (G @ cM.imag)
    # (-1)^l: the origin-side argument enters the translation formula
    # through its antipode as well
    return ((-4.0j * np.pi * k) * ((-1.0) ** ls * _ipow(ls))[:, None]
            * _ipow(lps)[None, :] * contracted)


def structure_constants(k0: float, R, lmax: int) -> StructureConstantMatrix:
    """Displaced-wave re-expansion coefficients g_{lm;l'm'}(k0, R).

    Assembled by the Gaunt contraction over outgoing waves h+_L(k0 |R|)
    Y_LM(R^); the defining pointwise identity (module docstring) is the
    source of truth for sign and normalisation.
    """
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    R = tuple(float(v) for v in np.asarray(R, dtype=float))
    if np.linalg.norm(R) == 0:
        raise ValueError("structure constants need |R| > 0")
    if lmax < 0 or 2 * lmax > 140:
        raise ValueError("lmax out of the supported range")
    k0, lmax = float(k0), int(lmax)
    c = _outgoing_waves(k0, R, 2 * lmax)
    g = np.zeros(((lmax + 1) ** 2, (lmax + 1) ** 2), dtype=complex)
    for m in range(-lmax, lmax + 1):
        rows = sph_index(np.arange(abs(m), lmax + 1), m)
        for mp in range(-lmax, lmax + 1):
            M = m - mp
            # with R on the z axis only the M = 0 column of Y_LM(R^) is nonzero
            if not np.any(c[sph_index(np.arange(abs(M), 2 * lmax + 1), M)]):
                continue
            cols = sph_index(np.arange(abs(mp), lmax + 1), mp)
            g[np.ix_(rows, cols)] = _g_block(k0, c, _gaunt_integrals(m, mp, lmax),
                                             m, mp, lmax)
    return StructureConstantMatrix(k0=k0, R=R, lmax=lmax, matrix=g)


# ---------------------------------------------------------------------------
# discretised two-center kernel and Schatten-4 norms
# ---------------------------------------------------------------------------

def _sigma4(B: np.ndarray) -> float:
    """||B^H B||_F^2, the sum of the fourth powers of B's singular values.

    A Schatten-4 norm of an operator that is unitarily block-diagonal is
    (sum over its blocks of _sigma4)^{1/4}.
    """
    return float(np.sum(np.abs(B.conj().T @ B) ** 2))


@dataclass
class KtildeDiscretization:
    """Quadrature discretisation of the two-center kernel in azimuthal blocks.

    The kernel is discretised as sqrt(w_x) K(x, y) sqrt(w_y) on two ball
    grids built with the pair on the polar axis, at (0, 0, 0) and
    (0, 0, |R|).  The kernel depends only on distances, and the grids,
    weights and cell-radius cap are invariant under a joint rotation about
    that axis, so the matrix is block-circulant over the uniform phi nodes:
    one FFT of its first phi column gives ``matrix[m]``, the block of
    azimuthal Fourier mode m, and the singular values of all the blocks
    are those of the whole matrix.  For overlapping supports the integrable
    1/|x-y| diagonal is tamed by capping distances at the local
    quadrature-cell radius (cell averaging).
    """

    scatterer_j: Scatterer
    scatterer_h: Scatterer
    z: ComplexEnergy
    matrix: np.ndarray = field(repr=False)
    n_radial: int = 0
    angular_order: int = 0

    @classmethod
    def build(cls, sj: Scatterer, sh: Scatterer, z: ComplexEnergy,
              n_radial: int = 14, angular_order: int = 10) -> "KtildeDiscretization":
        R_len = float(np.linalg.norm(sh.center_array - sj.center_array))
        aj = Scatterer((0.0, 0.0, 0.0), sj.potential)
        ah = Scatterer((0.0, 0.0, R_len), sh.potential)
        pj, wj, n_phi = _ball_grid(aj, n_radial, angular_order)
        ph, wh, _ = _ball_grid(ah, n_radial, angular_order)
        # nodes run phi-fastest: the h nodes at phi index 0 are every n_phi-th
        ph, wh = ph[::n_phi], wh[::n_phi]
        col = (np.sqrt(wj)[:, None] * _ktilde_matrix(aj, ah, z, pj, wj, ph, wh)
               * np.sqrt(wh)[None, :])
        blocks = np.fft.fft(col.reshape(-1, n_phi, ph.shape[0]), axis=1)
        return cls(scatterer_j=sj, scatterer_h=sh, z=z,
                   matrix=blocks.transpose(1, 0, 2),
                   n_radial=n_radial, angular_order=angular_order)


def _ball_grid(s: Scatterer, n_radial: int, angular_order: int):
    """Radial Gauss x angular product grid over the effective support ball.

    Returns the points, the weights and the number of phi nodes per theta
    ring; the nodes run phi-fastest.
    """
    pot = s.potential
    r_eff = pot.effective_radius()
    edges = [0.0] + [b for b in pot.breakpoints() if b < r_eff] + [r_eff]
    rs, wr = gauss_panels(edges, max(4, n_radial))
    ang = AngularGrid.for_degree(angular_order)
    pts = (s.center_array[None, None, :]
           + rs[:, None, None] * ang.nodes[None, :, :]).reshape(-1, 3)
    wts = (wr[:, None] * rs[:, None] ** 2 * ang.weights[None, :]).ravel()
    return pts, wts, ang.n_phi


def _ktilde_matrix(sj, sh, z, pj, wj, ph, wh):
    """Kernel K(x, y) at every pair of nodes, distances capped at the cell radius."""
    phi_j = sj.potential.phi(np.linalg.norm(pj - sj.center_array, axis=1))
    phi_h = sh.potential.phi(np.linalg.norm(ph - sh.center_array, axis=1))
    # cell radius used to regularise near-coincident nodes (overlap case)
    rho_j = (3.0 * wj / (4.0 * np.pi)) ** (1.0 / 3.0)
    rho_h = (3.0 * wh / (4.0 * np.pi)) ** (1.0 / 3.0)
    d = np.linalg.norm(pj[:, None, :] - ph[None, :, :], axis=2)
    d = np.maximum(d, (2.0 / 3.0) * np.maximum(rho_j[:, None], rho_h[None, :]))
    return (phi_j[:, None] * phi_h[None, :]
            * np.exp(1j * z.sqrt_z * d) / (4.0j * np.pi * d))


def schatten4_norm(K: KtildeDiscretization):
    """Schatten-4 norm estimate of the discretised kernel.

    Returns ``(value, refinement_delta)``: the value on a grid refined by
    1.5x in both radial and angular resolution, and its relative change
    from ``K``'s grid.  Every azimuthal block counts once.
    """
    v1 = sum(_sigma4(B) for B in K.matrix) ** 0.25
    fine = KtildeDiscretization.build(
        K.scatterer_j, K.scatterer_h, K.z,
        n_radial=math.ceil(1.5 * K.n_radial),
        angular_order=math.ceil(1.5 * K.angular_order)).matrix
    v2 = sum(_sigma4(B) for B in fine) ** 0.25
    return v2, abs(v2 - v1) / max(abs(v2), 1e-300)


#: Radial Gauss nodes per support segment for the spectral nu_l moments; the
#: refined estimate uses 3/2 as many.
_SPECTRAL_RADIAL_NODES = 160
#: Largest l kept by the spectral Schatten norm's coarse estimate.
_SPECTRAL_LMAX_CAP = 100
#: Exponent r of the decay diagnostic's integrand ||K||_4^r.
_DECAY_EXPONENT = 4.5


def _nu_weights(pot: Potential, k: float, lmax: int, n_radial: int) -> np.ndarray:
    """nu_l = integral of |V(r)| j_l(k r)^2 r^2 dr over the support."""
    r_eff = pot.effective_radius()
    edges = [0.0] + [b for b in pot.breakpoints() if b < r_eff] + [r_eff]
    rs, ws = gauss_panels(edges, n_radial)
    ws = ws * rs ** 2 * np.abs(pot.evaluate(rs))
    J = bessel_j_table(lmax, k * rs)
    return (J * J) @ ws


def schatten4_norm_spectral(pot_j: Potential, pot_h: Potential, ks,
                            R_len: float) -> list:
    """Schatten-4 norms for non-overlapping spherical scatterers at every k in ``ks``.

    Uses the displaced spherical-wave factorisation: in a frame with R
    along z the kernel block-diagonalises in the azimuthal index m, and
    its singular values are those of diag(sqrt(nu_l)) g_m diag(sqrt(nu_l'))
    per block, where nu_l are |V|-weighted Bessel moments.  Exact up to the
    l-truncation, which the returned delta monitors: one ``(value, delta)``
    per k, the value at lmax + 8 and the delta its relative change from
    lmax.  The Gaunt tables do not depend on k, so each m's table is built
    once, at the largest truncation any k needs, sliced for the others and
    contracted against every k's outgoing waves before the next m.
    """
    if pot_j.effective_radius() + pot_h.effective_radius() >= R_len:
        raise ValueError("spectral Schatten norm requires non-overlapping supports")
    ks = [float(k) for k in ks]
    # past l ~ ka the coupled entries decay geometrically with ratio
    # (r_eff_j + r_eff_h)/R; pad enough l's for ~1e-8 truncation
    ratio = (pot_j.effective_radius() + pot_h.effective_radius()) / R_len
    pad = int(min(60.0, max(12.0, -18.0 / np.log(min(ratio, 0.95)))))
    r_max = max(pot_j.effective_radius(), pot_h.effective_radius())
    lmaxes = [min(int(k * r_max + 4.0 * (k * r_max + 1.0) ** (1.0 / 3.0)) + pad,
                  _SPECTRAL_LMAX_CAP) for k in ks]
    # per k, (truncation, sqrt nu_j, sqrt nu_h) of the coarse estimate and of
    # the refined one (8 more l's, 3/2 the radial nodes)
    levels = [[(lm, np.sqrt(_nu_weights(pot_j, k, lm, n_rad)),
                np.sqrt(_nu_weights(pot_h, k, lm, n_rad)))
               for lm, n_rad in ((lmax, _SPECTRAL_RADIAL_NODES),
                                 (lmax + 8, _SPECTRAL_RADIAL_NODES * 3 // 2))]
              for k, lmax in zip(ks, lmaxes)]
    waves = [_outgoing_waves(k, (0.0, 0.0, R_len), 2 * (lmax + 8))
             for k, lmax in zip(ks, lmaxes)]
    top = max(lmaxes) + 8
    sums = np.zeros((len(ks), 2))
    for m in range(top + 1):
        G = _gaunt_integrals(m, m, top)
        for i, (k, lmax, c) in enumerate(zip(ks, lmaxes, waves)):
            L = lmax + 8
            if m > L:
                continue
            g = _g_block(k, c, G[:L - m + 1, :L - m + 1, :2 * L + 1], m, m, L)
            for level, (lm, root_j, root_h) in enumerate(levels[i]):
                if m <= lm:
                    # the +m and -m blocks coincide
                    sums[i, level] += (1.0 if m == 0 else 2.0) * _sigma4(
                        root_j[m:, None] * g[:lm - m + 1, :lm - m + 1] * root_h[None, m:])
    v1, v2 = sums.T ** 0.25
    return [(float(b), float(abs(b - a) / max(abs(b), 1e-300))) for a, b in zip(v1, v2)]


def schatten4_decay_diagnostic(k_values, norms) -> dict:
    """Truncated integral of ||K(k^2+i0)||_4^r over dk^2 (report-only).

    ``norms`` are the Schatten-4 norms at the increasing ``k_values``.  The
    tail beyond the sampled k-range is not computable at desk scale, so
    this is a diagnostic, never a pass/fail quantity.
    """
    ks = np.asarray(k_values, dtype=float)
    norms = np.asarray(norms, dtype=float)
    integrand = norms ** _DECAY_EXPONENT
    return {
        "k_values": ks.tolist(),
        "norms": norms.tolist(),
        "r_exponent": _DECAY_EXPONENT,
        "truncated_integral_dk2": float(np.trapezoid(integrand, ks ** 2)),
    }
