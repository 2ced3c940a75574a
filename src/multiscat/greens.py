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
it over L against the waves of every k at once.  ``structure_constants``
finds the columns M of Y_LM(R^) that are nonzero and visits only the
pairs (m, m') with m - m' among them: with R on the z axis that is M = 0,
the 2 lmax + 1 pairs m = m' (17 of 289 at lmax 8), and off it every pair.
The spectral Schatten norm calls it once per m with R along z, for all
its k in one contraction, and never builds the dense matrix.  The
triangle and parity zeros of the Gaunt table are imposed exactly, not
left to the quadrature: once L exceeds k|R|, h+_L
grows like (2L-1)!!/(k|R|)^{L+1}, so roundoff of 1e-16 in a forbidden
entry would be amplified past every allowed one.  That mask is built with
the Legendre table (``_legendre_rule``) once per sweep over the pairs, and
each pair slices it.  The rule is folded: only its nonnegative nodes are
kept, with doubled weights (the zero node of an odd rule keeps its own).  That
is exact for every entry the mask keeps, because P_lm(-x) =
(-1)^(l+m) P_lm(x) and |m| + |m'| + |M| is even, so the integrand of an
allowed entry, whose l + l' + L is even, is even in x.  It halves the
Legendre table, the pair products and the Gaunt matrix product.

Both Schatten-4 norms are (sum_m mult_m ||B_m^H B_m||_F^2)^{1/4} over
per-m blocks, each term from one helper, ``_sigma4``.  The spectral norm
(disjoint supports) sums the blocks g_m with R along z, counting the +/-m
pair twice, weighted by nu_l(k) = (pi/2) |V_l(k, k)| on the LS stage's
radial rule (the refined level doubles its nodes).  The grid norm
(overlapping supports) sums the azimuthal Fourier blocks of the
quadrature-discretised kernel on ball grids built with R on the polar
axis, so the value does not depend on the pair's orientation and no
(n_nodes x n_nodes) matrix is formed.  With the h node at phi = 0 the
kernel's first phi column is even in phi_j, so only its phi nodes
0..N//2 are built, one node's slice at a time into the one table that
then holds the blocks, and a real cosine transform of them, done in place
over column chunks, gives the distinct blocks m = 0..N//2; blocks m and
N - m coincide, so each counts twice except m = 0 and m = N/2, as the
+/-m pairs do.  The norm reduces that table one block at a time and
finishes each grid level before it builds the next, so beside the refined
table only transients of one block's size are live.  Both norms carry
|V|^{1/2} on each side of the resolvent, in place of the complex phi with
phi^2 = V: the two differ by a unit phase on each node, which moves no
singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from multiscat.lippmann import _radial_rule
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


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def _neg_sign(m):
    """Parity factor relating Y_{l,-|m|} to the positive-m Legendre row."""
    m = np.asarray(m)
    return np.where(m < 0, (-1.0) ** np.abs(m), 1.0)


def _ipow(n):
    """Exact powers of the imaginary unit, i^n, for integer n (array or scalar)."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.asarray(n) % 4]


def _legendre_rule(lmax: int):
    """P_LM for L <= 2 lmax on a folded Gauss-Legendre rule, and the Gaunt mask.

    The rule is the nonnegative half of the Gauss-Legendre rule of
    3 lmax + 8 nodes (exact to degree 6 lmax + 15): every weight doubled,
    except at the zero node of an odd rule.  It integrates every even
    polynomial of that degree exactly, and every Gaunt integrand that the
    mask keeps is even (see ``_gaunt_integrals``).  ``mask[l, l', L]``
    (l, l' <= lmax, L <= 2 lmax) is 2 pi, the azimuthal integral, where the
    triangle and parity rules allow the entry and 0.0 elsewhere; a pair
    (m, m') slices it ``[|m|:, |m'|:, |M|:]``.  Both callers sweep the
    azimuthal pairs of one lmax, so each builds the rule once per sweep and
    hands it to every ``_gaunt_integrals`` call of that sweep.
    """
    Lmax = 2 * lmax
    n = Lmax + Lmax // 2 + 8
    xg, wg = gauss_legendre(n)
    # gauss_legendre mirrors its positive half, so the halves match by
    # construction and the middle node of an odd rule is exactly 0.0
    x, w = xg[n // 2:], 2.0 * wg[n // 2:]
    if n % 2:
        w[0] = wg[n // 2]
    l = np.arange(lmax + 1)[:, None, None]
    lp = np.arange(lmax + 1)[None, :, None]
    L = np.arange(Lmax + 1)
    allowed = (L >= np.abs(l - lp)) & (L <= l + lp) & ((l + lp + L) % 2 == 0)
    return plm_norm_table(Lmax, x), w, np.where(allowed, 2.0 * np.pi, 0.0)


def _gaunt_integrals(m: int, mp: int, rule) -> np.ndarray:
    """G[l, l', L] = integral of Y_lm conj(Y_l'm') conj(Y_LM) over the sphere.

    ``rule`` is ``_legendre_rule(lmax)``.  M = m - m'; the axes run over
    l = |m|..lmax, l' = |m'|..lmax and L = |M|..2 lmax.  One matrix product
    on the folded rule gives every Legendre triple integral at once; the
    entries that the triangle and parity rules forbid are then set to
    exact zeros by the rule's mask (see the module docstring for why that
    mask cannot be left to the quadrature).  The folding is exact for
    every entry the mask keeps: P_lm(-x) = (-1)^(l+m) P_lm(x), and
    |m| + |m'| + |M| is even, so the integrand has the parity
    (-1)^(l+l'+L), which is even wherever l + l' + L is.
    """
    M = m - mp
    plm, w, mask = rule
    lmax = mask.shape[0] - 1
    ls = np.arange(abs(m), lmax + 1)
    lps = np.arange(abs(mp), lmax + 1)
    Ls = np.arange(abs(M), 2 * lmax + 1)
    pairs = (plm[tri_index(ls, abs(m))][:, None, :]
             * plm[tri_index(lps, abs(mp))][None, :, :]).reshape(-1, w.size)
    # the sign (exact) goes on the small (L, node) side of the product
    sign = _neg_sign(m) * _neg_sign(mp) * _neg_sign(M)
    G = (pairs @ (sign * w * plm[tri_index(Ls, abs(M))]).T).reshape(ls.size, lps.size, Ls.size)
    G *= mask[abs(m):, abs(mp):, abs(M):]
    return G


def _hankel_coefficients(k: float, R_len: float, Lmax: int) -> np.ndarray:
    """i^{-L} (-1)^L h+_L(k R_len) for L <= Lmax."""
    Ls = np.arange(Lmax + 1)
    x = k * R_len
    # (-1)^L: the inner argument enters the one-center expansion through
    # its antipode
    return _ipow(-Ls) * (-1.0) ** Ls * (bessel_j_table(Lmax, x) + 1j * bessel_y_table(Lmax, x))


def _outgoing_waves(k: float, R, Lmax: int) -> np.ndarray:
    """c[sph_index(L, M)] = i^{-L} (-1)^L h+_L(k|R|) conj(Y_LM(R^)), L <= Lmax."""
    Rv = np.asarray(R, dtype=float)
    coef = _hankel_coefficients(k, float(np.linalg.norm(Rv)), Lmax)
    return np.repeat(coef, 2 * np.arange(Lmax + 1) + 1) * np.conj(ylm_table(Lmax, Rv))


def _g_block(ks: np.ndarray, cM: np.ndarray, G: np.ndarray, m: int, mp: int) -> np.ndarray:
    """Structure constants g_{lm;l'm'} of one azimuthal pair (m, m') at every k.

    ``G`` is ``_gaunt_integrals(m, m', rule)`` and column i of ``cM`` holds
    the M = m - m' entries, L = |M|..2 lmax, of ``_outgoing_waves(ks[i], R,
    2 lmax)``.  Returns g[i, l - |m|, l' - |m'|].  The phase i^{l+l'-L}
    factorises, so the L-sum is one contraction of the Gaunt table with
    every k's waves at once.
    """
    nl, nlp, nL = G.shape
    ls = np.arange(abs(m), abs(m) + nl)
    lps = np.arange(abs(mp), abs(mp) + nlp)
    flat = G.reshape(-1, nL)
    # two real products: G is never copied to complex
    contracted = (flat @ cM.real + 1j * (flat @ cM.imag)).T.reshape(-1, nl, nlp)
    # (-1)^l: the origin-side argument enters the translation formula
    # through its antipode as well
    phase = ((-1.0) ** ls * _ipow(ls))[:, None] * _ipow(lps)[None, :]
    return (-4.0j * np.pi * np.asarray(ks, dtype=float))[:, None, None] * phase * contracted


def structure_constants(k0: float, R, lmax: int) -> np.ndarray:
    """Displaced-wave re-expansion coefficients g_{lm;l'm'}(k0, R).

    Returns the ((lmax + 1)^2, (lmax + 1)^2) complex matrix indexed by
    ``sph_index(l, m)`` on the first center (at the origin) and
    ``sph_index(l', m')`` on the second (at R).  Assembled by the Gaunt
    contraction over outgoing waves h+_L(k0 |R|) Y_LM(R^), with one
    Legendre rule for the whole (m, m') sweep.  The sweep visits only the
    pairs whose M = m - m' column of the waves is nonzero (m = m' alone
    when R lies on the z axis); every other block is exactly zero.  The
    defining pointwise identity (module docstring) is the source of truth
    for sign and normalisation.
    """
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    R = np.asarray(R, dtype=float)
    if np.linalg.norm(R) == 0:
        raise ValueError("structure constants need |R| > 0")
    if lmax < 0 or 2 * lmax > 140:
        raise ValueError("lmax out of the supported range")
    k0, lmax = float(k0), int(lmax)
    c = _outgoing_waves(k0, R, 2 * lmax)
    # the live columns M of the outgoing waves: with R on the z axis only
    # M = 0 is nonzero, off it every M is
    columns = ((M, c[sph_index(np.arange(abs(M), 2 * lmax + 1), M), None])
               for M in range(-2 * lmax, 2 * lmax + 1))
    live = {M: cM for M, cM in columns if np.any(cM)}
    rule = _legendre_rule(lmax)
    g = np.zeros(((lmax + 1) ** 2, (lmax + 1) ** 2), dtype=complex)
    for m in range(-lmax, lmax + 1):
        rows = sph_index(np.arange(abs(m), lmax + 1), m)
        for M, cM in live.items():
            mp = m - M
            if abs(mp) > lmax:
                continue
            cols = sph_index(np.arange(abs(mp), lmax + 1), mp)
            g[np.ix_(rows, cols)] = _g_block([k0], cM, _gaunt_integrals(m, mp, rule),
                                             m, mp)[0]
    return g


# ---------------------------------------------------------------------------
# discretised two-center kernel and Schatten-4 norms
# ---------------------------------------------------------------------------

def _sigma4(B: np.ndarray):
    """||B^H B||_F^2, the sum of the fourth powers of B's singular values.

    A Schatten-4 norm of an operator that is unitarily block-diagonal is
    (sum over its blocks of _sigma4)^{1/4}.  A stack B[..., n, n'] gives
    one value per matrix.
    """
    return np.sum(np.abs(np.swapaxes(B.conj(), -1, -2) @ B) ** 2, axis=(-2, -1))


@dataclass
class KtildeDiscretization:
    """Quadrature discretisation of the two-center kernel in azimuthal blocks.

    The kernel at z = k0^2 + i0 is discretised as sqrt(w_x) K(x, y)
    sqrt(w_y) on two ball grids built with the pair on the polar axis, at
    (0, 0, 0) and (0, 0, |R|).  The kernel depends only on distances, and
    the grids, weights and cell-radius cap are invariant under a joint
    rotation about that axis, so the matrix is block-circulant over the
    N uniform phi nodes: the blocks of azimuthal Fourier mode m are the
    transform of its first phi column, and the singular values of all the
    blocks are those of the whole matrix.  With the h node at phi = 0 that
    column depends on phi_j only through cos(phi_j), so its phi nodes n and
    N - n coincide, and so do blocks m and N - m: ``matrix[m]`` holds the
    distinct blocks m = 0..N//2, and ``multiplicity[m]`` counts each block's
    copies (1 for m = 0 and m = N/2, 2 otherwise).  ``build`` writes phi
    nodes 0..N//2 of the column one node's (n_j', n_h) slice at a time into
    one interleaved (re, im) table of shape (N//2 + 1, n_j', n_h, 2), applies
    the real cosine transform to it in place, over column chunks the size
    of one slice, and ``matrix`` is its complex view: no other array of the
    table's size is formed.  The amplitudes are sqrt(w |V|) in place of
    sqrt(w) phi with phi^2 = V: the two differ by a diagonal unitary
    (phi/|phi| on each node), which leaves the singular values unchanged.
    For overlapping supports the integrable 1/|x-y| diagonal is tamed by
    capping distances at the local quadrature-cell radius (cell averaging).
    ``schatten4_norm`` builds one at each of its two grid levels.
    """

    matrix: np.ndarray = field(repr=False)
    multiplicity: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, sj: Scatterer, sh: Scatterer, k0: float,
              n_radial: int, angular_order: int) -> "KtildeDiscretization":
        R_len = float(np.linalg.norm(sh.center_array - sj.center_array))
        aj = Scatterer((0.0, 0.0, 0.0), sj.potential)
        ah = Scatterer((0.0, 0.0, R_len), sh.potential)
        pj, wj, n_phi = _ball_grid(aj, n_radial, angular_order)
        ph, wh, _ = _ball_grid(ah, n_radial, angular_order)
        half = n_phi // 2 + 1
        # the grids run phi-fastest: the j nodes at phi index n are
        # pj[:, n], and the h nodes are kept at phi index 0 alone
        pj, wj = pj.reshape(-1, n_phi, 3), wj.reshape(-1, n_phi)
        ph, wh = ph[::n_phi], wh[::n_phi]
        # the first phi column, one phi node n = 0..N//2 at a time, straight
        # into the interleaved (re, im) table whose complex view is the blocks
        table = np.empty((half, pj.shape[0], ph.shape[0], 2))
        for i, out in enumerate(table):
            _ktilde_matrix(aj, ah, k0, pj[:, i], wj[:, i], ph, wh, out)
        # blocks[m] = sum_n mult_n cos(2 pi m n/N) col[n], as a real product
        # in place, over column chunks the size of one phi node's slice
        n = np.arange(half)
        mult = np.where((n == 0) | (2 * n == n_phi), 1.0, 2.0)
        cosines = np.cos((2.0 * np.pi / n_phi) * (np.outer(n, n) % n_phi)) * mult
        flat = table.reshape(half, -1)
        step = -(-flat.shape[1] // half)
        for c in range(0, flat.shape[1], step):
            chunk = flat[:, c:c + step]
            chunk[...] = cosines @ chunk
        blocks = table.view(complex)[..., 0]
        return cls(matrix=blocks, multiplicity=mult)


def _ball_grid(s: Scatterer, n_radial: int, angular_order: int):
    """Radial Gauss x angular product grid over the effective support ball.

    Returns the points, the weights and the number of phi nodes per theta
    ring; the nodes run phi-fastest.
    """
    rs, wr = gauss_panels(s.potential.support_edges(), max(4, n_radial))
    ang = AngularGrid.for_degree(angular_order)
    pts = (s.center_array[None, None, :]
           + rs[:, None, None] * ang.nodes[None, :, :]).reshape(-1, 3)
    wts = (wr[:, None] * rs[:, None] ** 2 * ang.weights[None, :]).ravel()
    return pts, wts, ang.n_phi


def _ktilde_matrix(sj, sh, k0, pj, wj, ph, wh, out):
    """sqrt(w_x |V_j(x)|) K(x, y) sqrt(w_y |V_h(y)|) at every node pair, as (re, im), into ``out``.

    The h nodes must lie at phi = 0 (y = 0 exactly), so each distance is
    read from (x_j - x_h)^2 + y_j^2 + (z_j - z_h)^2; it is capped at 2/3 of
    the larger cell radius (3 w/(4 pi))^{1/3}.  The kernel's phase
    e^{ikd}/(4 pi i d) = (sin kd - i cos kd)/(4 pi d) goes into the last
    axis of the real (len(pj), len(ph), 2) array ``out``, whose complex view
    is the matrix.  ``KtildeDiscretization.build`` passes the j nodes of one
    phi node and that node's slice of its table.
    """
    amp_j = np.sqrt(wj * np.abs(sj.potential.evaluate(
        np.linalg.norm(pj - sj.center_array, axis=1)))) / (4.0 * np.pi)
    amp_h = np.sqrt(wh * np.abs(sh.potential.evaluate(
        np.linalg.norm(ph - sh.center_array, axis=1))))
    # 2/3 of the cell radius regularises near-coincident nodes (overlap case)
    cap_j = (2.0 / 3.0) * (3.0 * wj / (4.0 * np.pi)) ** (1.0 / 3.0)
    cap_h = (2.0 / 3.0) * (3.0 * wh / (4.0 * np.pi)) ** (1.0 / 3.0)
    # one (len(pj), len(ph)) buffer: d^2, d, then k d
    d = np.subtract.outer(pj[:, 0], ph[:, 0]) ** 2
    d += (pj[:, 1] ** 2)[:, None]
    d += np.subtract.outer(pj[:, 2], ph[:, 2]) ** 2
    np.sqrt(d, out=d)
    np.maximum(d, np.maximum.outer(cap_j, cap_h), out=d)
    scale = np.multiply.outer(amp_j, amp_h)
    scale /= d
    d *= k0
    np.sin(d, out=out[..., 0])
    np.cos(d, out=out[..., 1])
    out *= scale[..., None]
    np.negative(out[..., 1], out=out[..., 1])


def schatten4_norm(sj: Scatterer, sh: Scatterer, k0: float,
                   n_radial: int = 12, angular_order: int = 9):
    """Schatten-4 norm estimate of the two-center kernel of ``sj`` and ``sh`` at k0.

    Builds the ``KtildeDiscretization`` at (n_radial, angular_order) and
    on a grid refined by 1.5x in both radial and angular resolution, and
    returns ``(value, refinement_delta)``: the refined value and its
    relative change from the coarse one.  Each distinct azimuthal block
    counts its ``multiplicity`` times, as the +/-m pairs of the spectral
    norm do.  The blocks are reduced by ``_sigma4`` one at a time, and each
    level's table is freed before the next level is built, so the refined
    table is the one grid-sized array alive at the peak.
    """
    levels = ((n_radial, angular_order),
              (math.ceil(1.5 * n_radial), math.ceil(1.5 * angular_order)))
    values = []
    for level in levels:
        D = KtildeDiscretization.build(sj, sh, k0, *level)
        values.append(float(D.multiplicity @ np.array([_sigma4(B) for B in D.matrix])) ** 0.25)
        # the level's blocks are freed before the next level is built
        del D
    v1, v2 = values
    return v2, _refinement_delta(v1, v2)


def _refinement_delta(coarse: float, fine: float) -> float:
    """|fine - coarse| / |fine|: the relative change of a Schatten norm under refinement."""
    return float(abs(fine - coarse) / max(abs(fine), 1e-300))


#: Largest l kept by the spectral Schatten norm's coarse estimate.
_SPECTRAL_LMAX_CAP = 100
#: Exponent r of the decay diagnostic's integrand ||K||_4^r.
_DECAY_EXPONENT = 4.5


def _nu_weights(pot: Potential, ks, lmax: int, scale: int) -> np.ndarray:
    """nu_l(k) = integral |V| j_l(k r)^2 r^2 dr = (pi/2) |V_l(k, k)|, shape (len(ks), lmax + 1).

    Read on ``lippmann._radial_rule`` at the largest k, from one Bessel table.
    """
    rs, c = _radial_rule(pot, float(np.max(ks)), scale)
    J = bessel_j_table(lmax, np.multiply.outer(ks, rs))
    return ((J * J) @ (0.5 * np.pi * np.abs(c))).T


def spectral_truncations(pot_j: Potential, pot_h: Potential, ks, R_len: float) -> list:
    """The l-truncation of the spectral Schatten-4 norm's coarse estimate at each k.

    The refined estimate keeps 8 more l's.
    """
    # past l ~ ka the coupled entries decay geometrically with ratio
    # (r_eff_j + r_eff_h)/R; pad enough l's for ~1e-8 truncation
    ratio = (pot_j.effective_radius() + pot_h.effective_radius()) / R_len
    pad = int(min(60.0, max(12.0, -18.0 / np.log(min(ratio, 0.95)))))
    r_max = max(pot_j.effective_radius(), pot_h.effective_radius())
    return [min(int(k * r_max + 4.0 * (k * r_max + 1.0) ** (1.0 / 3.0)) + pad,
                _SPECTRAL_LMAX_CAP) for k in ks]


def schatten4_norm_spectral(pot_j: Potential, pot_h: Potential, ks,
                            R_len: float) -> list:
    """Schatten-4 norms for non-overlapping spherical scatterers at every k in ``ks``.

    Uses the displaced spherical-wave factorisation: in a frame with R
    along z the kernel block-diagonalises in the azimuthal index m, and
    its singular values are those of diag(sqrt(nu_l)) g_m diag(sqrt(nu_l'))
    per block, where nu_l are |V|-weighted Bessel moments.  Exact up to the
    l-truncation (``spectral_truncations``), which the returned delta
    monitors: one ``(value, delta)`` per k, the value at lmax + 8 and the
    delta its relative change from lmax.

    One sweep over m serves every k.  The Gaunt table does not depend on
    k: each m's table is built once, at the largest truncation any k
    needs, on one folded Legendre rule and Gaunt mask (``_legendre_rule``)
    built for the whole sweep, and one contraction takes it against every
    k's M = 0 waves.  Each k's Hankel table is built at its own truncation
    2 (lmax + 8) and zero-padded to the largest; that is exact, because the
    mask zeroes every L > l + l', and building it higher would overflow
    y_L at small k|R|.  The nu moments come from one Bessel table per
    distinct potential and level over all k (``_nu_weights``), and the
    sqrt(nu) rows of each k are zero past its truncation, so every k's
    blocks of one m reduce in one stacked ``_sigma4``.
    """
    if pot_j.effective_radius() + pot_h.effective_radius() >= R_len:
        raise ValueError("spectral Schatten norm requires non-overlapping supports")
    ks = np.array(ks, dtype=float)
    lmaxes = np.array(spectral_truncations(pot_j, pot_h, ks, R_len))
    top = int(lmaxes.max()) + 8
    # per level (the coarse estimate on the LS stage's radial rule, and the
    # refined one with 8 more l's on twice its nodes) root[i, l] =
    # sqrt(nu_l(k_i)), zero past the truncation of k_i
    roots = []
    for extra, scale in ((0, 1), (8, 2)):
        keep = np.arange(top + 1) <= (lmaxes + extra)[:, None]
        root = {p: np.sqrt(np.where(keep, _nu_weights(p, ks, top, scale), 0.0))
                for p in {pot_j, pot_h}}
        roots.append((root[pot_j], root[pot_h]))
    # the M = 0 waves of every k; Y_L0 along +z is sqrt((2L + 1)/(4 pi))
    Ls = np.arange(2 * top + 1)
    waves = np.zeros((Ls.size, ks.size), dtype=complex)
    for i, (k, lmax) in enumerate(zip(ks, lmaxes)):
        waves[:2 * (lmax + 8) + 1, i] = _hankel_coefficients(k, R_len, 2 * (lmax + 8))
    waves *= np.sqrt((2 * Ls + 1) / (4.0 * np.pi))[:, None]
    rule = _legendre_rule(top)
    sums = np.zeros((2, ks.size))
    for m in range(top + 1):
        g = _g_block(ks, waves, _gaunt_integrals(m, m, rule), m, m)
        for level, (root_j, root_h) in enumerate(roots):
            # the +m and -m blocks coincide
            sums[level] += (1.0 if m == 0 else 2.0) * _sigma4(
                root_j[:, m:, None] * g * root_h[:, None, m:])
    v1, v2 = sums ** 0.25
    return [(float(b), _refinement_delta(a, b)) for a, b in zip(v1, v2)]


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
