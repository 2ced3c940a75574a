from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multiscat import greens
from multiscat.greens import (
    KtildeDiscretization,
    _ball_grid,
    _gaunt_integrals,
    _legendre_rule,
    _nu_weights,
    schatten4_norm,
    schatten4_norm_spectral,
    structure_constants,
)
from multiscat.lippmann import ComplexEnergy
from multiscat.potentials import (
    Scatterer,
    exponential,
    gaussian,
    square_well,
    truncated_coulomb,
)
from multiscat.specfun import sph_index

from oracles import (
    ConvergenceRegionError,
    dense_grid_schatten4,
    expansion_value,
    g_entry,
    ktilde_kernel,
    nu_fixed_rule,
    phi,
    r0_kernel,
    spectral_schatten4_per_k,
    structure_constants_full_sweep,
    wigner3j,
    zaxis_blocks,
)


# ---------------------------------------------------------------------------
# free-resolvent and sandwich kernels
# ---------------------------------------------------------------------------

def test_complex_energy_invariants():
    z = ComplexEnergy(2.0, 0.5)
    assert z.z == 4.0 + 0.5j
    # the principal root keeps Im >= 0 on the upper rim of the cut
    assert np.sqrt(z.z).imag > 0
    assert np.sqrt(ComplexEnergy(2.0, 0.0).z) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ComplexEnergy(-1.0, 0.0)
    with pytest.raises(ValueError):
        ComplexEnergy(1.0, -0.1)


def test_r0_kernel_closed_forms():
    z = ComplexEnergy(1.0, 0.0)
    # |x-y| = 2 pi: e^{2 pi i} = 1
    v = r0_kernel(z, [0, 0, 0], [0, 0, 2 * np.pi])
    assert v == pytest.approx(-1.0 / (8 * np.pi ** 2))
    # |x-y| = pi: -e^{i pi}/(4 pi^2) = +1/(4 pi^2)
    v = r0_kernel(z, [0, 0, 0], [np.pi, 0, 0])
    assert v == pytest.approx(1.0 / (4 * np.pi ** 2))


def test_r0_kernel_decay_bound():
    z = ComplexEnergy(1.0, 1.0)
    kappa = np.sqrt(z.z).imag
    for r in (2.0, 10.0, 40.0):
        v = r0_kernel(z, [0, 0, 0], [0, 0, r])
        assert abs(v) <= np.exp(-kappa * r) / (4 * np.pi * r) * (1 + 1e-12)


def test_r0_kernel_singular():
    with pytest.raises(ValueError):
        r0_kernel(ComplexEnergy(1.0, 0.0), [1, 2, 3], [1, 2, 3])


def test_ktilde_kernel_structure():
    sj = Scatterer((0, 0, 0), square_well(4.0, 1.0))   # phi real positive
    sh = Scatterer((0, 0, 3.0), square_well(9.0, 1.0))
    z = ComplexEnergy(1.0, 0.0)
    x = np.array([0.0, 0.0, 0.5])
    y = np.array([0.0, 0.0, 2.8])
    r = np.linalg.norm(x - y)
    expected = 2.0 * 3.0 * (-1j) * np.exp(1j * r) / (4 * np.pi * r)
    assert ktilde_kernel(sj, sh, z, x, y) == pytest.approx(expected)
    # i * phi G0 phi form
    assert ktilde_kernel(sj, sh, z, x, y) == pytest.approx(
        1j * 2.0 * 3.0 * r0_kernel(z, x, y))


def test_ktilde_outside_support_vanishes():
    sj = Scatterer((0, 0, 0), square_well(-1.0, 1.0))
    sh = Scatterer((0, 0, 3.0), square_well(-1.0, 1.0))
    z = ComplexEnergy(1.0, 0.0)
    assert ktilde_kernel(sj, sh, z, [0, 0, 1.5], [0, 0, 2.9]) == 0.0


def test_ktilde_distance_bound():
    # for wells at support distance d, |kernel| <= |phi_j phi_h| / (4 pi d)
    sj = Scatterer((0, 0, 0), square_well(-1.0, 1.0))
    sh = Scatterer((0, 0, 3.0), square_well(-1.0, 1.0))
    z = ComplexEnergy(1.0, 0.0)
    d = 1.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=3)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        y = np.array([0, 0, 3.0]) + rng.normal(size=3) * 0.2
        if np.linalg.norm(y - [0, 0, 3.0]) > 1.0:
            continue
        v = ktilde_kernel(sj, sh, z, x, y)
        assert abs(v) <= 1.0 / (4 * np.pi * d) + 1e-12


def test_ktilde_matrix_matches_pointwise_oracle():
    # on disjoint supports every node pair is farther apart than the cell
    # radius, so the phi-0..N//2 column behind the distinct azimuthal blocks
    # is the plain weighted kernel entrywise, on grids with the pair on the
    # z axis, with |V|^{1/2} in place of phi: the oracle's kernel times the
    # unit phases |phi_j phi_h|/(phi_j phi_h)
    sj = Scatterer((0, 0, 0), square_well(-1.0, 1.0))
    sh = Scatterer((0.4, 0.0, 2.9), square_well(-2.0, 0.8))
    z = ComplexEnergy(1.3, 0.0)
    K = KtildeDiscretization.build(sj, sh, z.k0, 6, 4)
    assert [f.name for f in fields(K)] == ["matrix", "multiplicity"]
    aj = Scatterer((0, 0, 0), sj.potential)
    ah = Scatterer((0, 0, np.hypot(0.4, 2.9)), sh.potential)
    pj, wj, n_phi = _ball_grid(aj, 6, 4)
    ph, wh, _ = _ball_grid(ah, 6, 4)
    half = n_phi // 2 + 1
    pj = pj.reshape(-1, n_phi, 3)[:, :half].transpose(1, 0, 2)
    wj = wj.reshape(-1, n_phi)[:, :half].T
    ph, wh = ph[::n_phi], wh[::n_phi]
    phi_j = phi(sj.potential, np.linalg.norm(pj, axis=-1))
    phi_h = phi(sh.potential, np.linalg.norm(ph - ah.center_array, axis=-1))
    want = ((np.sqrt(wj) * np.abs(phi_j) / phi_j)[..., None]
            * ktilde_kernel(aj, ah, z, pj[..., None, :], ph[None, None, :, :])
            * np.sqrt(wh) * np.abs(phi_h) / phi_h)
    assert K.matrix.shape == (n_phi // 2 + 1, pj.shape[1], ph.shape[0])
    # the inverse cosine transform: column n = sum_m mult_m cos(2 pi m n/N) B_m / N
    m = np.arange(half)
    mult = np.where((m == 0) | (2 * m == n_phi), 1.0, 2.0)
    np.testing.assert_array_equal(K.multiplicity, mult)
    inverse = mult * np.cos(2.0 * np.pi * np.outer(m, m) / n_phi) / n_phi
    got = np.einsum("nm,mrc->nrc", inverse, K.matrix)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_g00_closed_form():
    for Rlen in (2.0, 5.0):
        g = structure_constants(1.0, [0, 0, Rlen], 4)
        assert g_entry(g, 0, 0, 0, 0) == pytest.approx(-np.exp(1j * Rlen) / Rlen,
                                                       rel=1e-12)


def test_m_selection_rule_on_axis():
    g = structure_constants(1.0, [0, 0, 3.0], 3)
    for l in range(4):
        for m in range(-l, l + 1):
            for lp in range(4):
                for mp in range(-lp, lp + 1):
                    if m != mp:
                        assert g_entry(g, l, m, lp, mp) == 0.0


def test_defining_identity_pointwise():
    # the acceptance-grade version runs at lmax=20 in test_acceptance
    k0 = 1.0
    R = np.array([1.2, -0.7, 2.5])
    g = structure_constants(k0, R, 14)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=3)
        x *= rng.uniform(0.05, 0.9) / np.linalg.norm(x)
        v = rng.normal(size=3)
        v *= rng.uniform(0.05, 0.9) / np.linalg.norm(v)
        y = R + v
        r = np.linalg.norm(x - y)
        exact = -np.exp(1j * k0 * r) / (4 * np.pi * r)
        assert abs(expansion_value(g, k0, R, 14, x, y) - exact) / abs(exact) < 1e-5


def test_convergence_region_error():
    g = structure_constants(1.0, [0, 0, 3.0], 6)
    with pytest.raises(ConvergenceRegionError):
        expansion_value(g, 1.0, [0, 0, 3.0], 6, [0, 0, 2.0], [0, 0, 4.5])


def _racah_gaunt(l, m, lp, mp, L):
    """Integral of Y_lm conj(Y_l'm') conj(Y_LM), M = m - m', from 3j symbols."""
    M = m - mp
    return ((-1.0) ** (mp + M)
            * np.sqrt((2 * l + 1) * (2 * lp + 1) * (2 * L + 1) / (4 * np.pi))
            * wigner3j(l, lp, L, 0, 0, 0) * wigner3j(l, lp, L, m, -mp, -M))


def test_gaunt_integrals_match_racah():
    # quadrature-free reference: Racah's closed form in exact arithmetic;
    # the forbidden entries must be exact zeros, not quadrature roundoff
    for lmax in range(6):
        rule = _legendre_rule(lmax)
        for m in range(-lmax, lmax + 1):
            for mp in range(-lmax, lmax + 1):
                G = _gaunt_integrals(m, mp, rule)
                index = [[[(l, lp, L) for L in range(abs(m - mp), 2 * lmax + 1)]
                          for lp in range(abs(mp), lmax + 1)]
                         for l in range(abs(m), lmax + 1)]
                ref = np.array([[[_racah_gaunt(l, m, lp, mp, L) for l, lp, L in row]
                                 for row in plane] for plane in index])
                forbidden = np.array([[[not (abs(l - lp) <= L <= l + lp) or (l + lp + L) % 2
                                        for l, lp, L in row] for row in plane]
                                      for plane in index], dtype=bool)
                assert G.shape == ref.shape
                assert np.max(np.abs(G - ref)) < 1e-13
                assert np.all(G[forbidden] == 0.0)


def test_zaxis_blocks_match_structure_constants():
    for lmax in (0, 3, 7, 12):
        for k, R in ((1.0, 5.0), (2.5, 3.0)):
            g = structure_constants(k, (0.0, 0.0, R), lmax)
            blocks = zaxis_blocks(k, R, lmax)
            scale = np.max(np.abs(g))
            assert len(blocks) == lmax + 1
            for m in range(lmax + 1):
                ls = np.arange(m, lmax + 1)
                for mm in (m, -m):
                    idx = sph_index(ls, mm)
                    assert np.max(np.abs(g[np.ix_(idx, idx)] - blocks[m])) <= 1e-14 * scale


def test_structure_constants_truncate_as_blocks():
    # g_{lm;l'm'} does not depend on the truncation: the lmax-L matrix is
    # the top-left block of the lmax-8 one
    for R in ((0.0, 0.0, 5.0), (1.2, -0.7, 2.5)):
        big = structure_constants(1.0, R, 8)
        scale = np.max(np.abs(big))
        for lm in range(8):
            n = (lm + 1) ** 2
            g = structure_constants(1.0, R, lm)
            assert np.max(np.abs(g - big[:n, :n])) <= 1e-12 * scale, (R, lm)


@pytest.mark.parametrize("R, lmax", [((0.0, 0.0, 3.0), 0), ((0.0, 0.0, 3.0), 3),
                                     ((0.0, 0.0, 3.0), 8), ((0.0, 0.0, -3.0), 0),
                                     ((0.0, 0.0, -3.0), 3), ((0.0, 0.0, -3.0), 8),
                                     ((1.0, 2.0, 3.0), 4)])
def test_structure_constants_sweep_only_the_live_columns(monkeypatch, R, lmax):
    # the sweep over the live M = m - m' columns is the sweep over every
    # (m, m') bit for bit, and on the z axis it visits only m = m'
    ref = structure_constants_full_sweep(1.3, R, lmax)
    visited = []
    gaunt = greens._gaunt_integrals

    def counted(m, mp, rule):
        visited.append((m, mp))
        return gaunt(m, mp, rule)

    monkeypatch.setattr(greens, "_gaunt_integrals", counted)
    g = structure_constants(1.3, R, lmax)
    assert np.array_equal(g, ref)
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(lmax + 1)])
    if R[:2] == (0.0, 0.0):
        assert sorted(visited) == [(m, m) for m in range(-lmax, lmax + 1)]
        assert np.all(g[ms[:, None] != ms[None, :]] == 0.0)
    else:
        assert len(visited) == (2 * lmax + 1) ** 2


def test_structure_constants_preconditions():
    with pytest.raises(ValueError):
        structure_constants(0.0, [0, 0, 1.0], 4)
    with pytest.raises(ValueError):
        structure_constants(1.0, [0, 0, 0.0], 4)
    # L = 2 lmax runs to 140 at most
    with pytest.raises(ValueError):
        structure_constants(1.0, (0, 0, 3), 71)


# ---------------------------------------------------------------------------
# Schatten-4 norms
# ---------------------------------------------------------------------------

def _gauss_pair(sep):
    return (Scatterer((0, 0, 0), gaussian(-1.0, 1.0)),
            Scatterer((0, 0, sep), gaussian(-1.0, 1.0)))


def test_schatten_zero_potential():
    sj = Scatterer((0, 0, 0), gaussian(0.0, 1.0))
    sh = Scatterer((0, 0, 3.0), gaussian(-1.0, 1.0))
    val, _ = schatten4_norm(sj, sh, 1.0, 8, 6)
    assert val == 0.0


def test_schatten_rank_one_oracle():
    # kernel u(x) v(y): every Schatten norm equals ||u||_2 ||v||_2
    sj, sh = _gauss_pair(4.0)
    c = np.array([0.0, 0.0, 4.0])

    def kfn(X, Y):
        u = np.exp(-np.linalg.norm(X, axis=1) ** 2)
        v = np.exp(-0.5 * np.linalg.norm(Y - c, axis=1) ** 2)
        return u[:, None] * v[None, :]

    z = ComplexEnergy(1.0, 0.0)
    coarse = dense_grid_schatten4(sj, sh, z, 16, 10, kernel=kfn)
    val = dense_grid_schatten4(sj, sh, z, 24, 15, kernel=kfn)
    nu = np.sqrt(quad(lambda r: 4 * np.pi * r * r * np.exp(-2 * r * r), 0, 6)[0])
    nv = np.sqrt(quad(lambda r: 4 * np.pi * r * r * np.exp(-r * r), 0, 6)[0])
    assert val == pytest.approx(nu * nv, rel=1e-6)
    assert abs(val - coarse) / val < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3))
def test_schatten_scaling_exact(c):
    sj, sh = _gauss_pair(3.5)

    def kfn(X, Y):
        u = np.exp(-np.linalg.norm(X, axis=1) ** 2)
        v = np.exp(-np.linalg.norm(Y - np.array([0, 0, 3.5]), axis=1) ** 2)
        return u[:, None] * v[None, :]

    z = ComplexEnergy(1.0, 0.0)
    v1 = dense_grid_schatten4(sj, sh, z, 6, 4, kernel=kfn)
    vc = dense_grid_schatten4(sj, sh, z, 6, 4, kernel=lambda X, Y: c * kfn(X, Y))
    assert vc == pytest.approx(abs(c) * v1, rel=1e-12)


def test_schatten_grid_vs_spectral_nonoverlap():
    # two entirely different discretisations of the same operator
    pj = square_well(-1.0, 1.0)
    sj = Scatterer((0, 0, 0), pj)
    sh = Scatterer((0, 0, 3.0), pj)
    [(vs, _)] = schatten4_norm_spectral(pj, pj, [2.0], 3.0)
    vg, _ = schatten4_norm(sj, sh, 2.0, 12, 10)
    assert vg == pytest.approx(vs, rel=1e-3)


def test_schatten_overlap_refinement_stable():
    # overlapping Gaussians: finite value, stable under grid refinement
    sj, sh = _gauss_pair(1.0)
    val, delta = schatten4_norm(sj, sh, 1.0, 12, 9)
    assert np.isfinite(val) and val > 0
    assert delta < 0.05


def test_schatten_grid_pinned_on_bundled_gaussians():
    # the overlap_gaussians config's pair at its k0, at the default levels
    sj, sh = _gauss_pair(1.0)
    value, delta = schatten4_norm(sj, sh, 1.0)
    assert value == pytest.approx(0.2998423815091978, rel=1e-15)
    assert delta == pytest.approx(0.0024905756004164944, rel=1e-15)


def test_schatten_grid_memory_stays_near_one_table():
    # the refined level's table, (N//2 + 1, n_j', n_h) complex, is the one
    # grid-sized array of the norm: it is built slice by slice, transformed
    # in place and reduced one block at a time, with the coarse level freed
    # first.  Measured rise above live: 4.2 MB against a 3.36 MB table
    import tracemalloc

    sj, sh = _gauss_pair(1.0)
    table = KtildeDiscretization.build(sj, sh, 1.0, 18, 14).matrix.nbytes
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        schatten4_norm(sj, sh, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 2 * table


def test_schatten_spectral_requires_gap():
    with pytest.raises(ValueError):
        schatten4_norm_spectral(gaussian(-1.0, 1.0), gaussian(-1.0, 1.0),
                                [1.0], 1.0)


@pytest.mark.parametrize("sj, sh", [
    _gauss_pair(1.0),
    (Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
     Scatterer((0, 0, 3.0), truncated_coulomb(-1.0, 0.04, 0.2))),
    (Scatterer((0, 0, 0), gaussian(1.5, 0.8)),
     Scatterer((0.5, 0.3, 0.9), gaussian(-1.0, 1.0))),
], ids=["overlapping", "separated", "mixed_sign_off_axis"])
def test_schatten_blocks_match_dense_oracle(sj, sh):
    # the block route builds its grids with the pair on the polar axis, so
    # the oracle's lab-frame grids are handed the pair there (same |R|); the
    # truncated Coulomb ball has two radial segments, so the separated
    # pair's blocks are rectangular.  The oracle keeps the complex phi, which
    # checks the blocks' |V|^{1/2} amplitudes, here also with a repulsive V_j
    # against an attractive V_h and R off the z axis.  The levels
    # (8, 6) -> (12, 9) have N = 7 and N = 10 phi nodes, so both an odd and
    # an even N (with its m = N/2 block) are covered
    z = ComplexEnergy(1.0, 0.0)
    value, delta = schatten4_norm(sj, sh, z.k0, 8, 6)
    R_len = np.linalg.norm(sh.center_array - sj.center_array)
    aj = Scatterer((0, 0, 0), sj.potential)
    ah = Scatterer((0, 0, R_len), sh.potential)
    coarse = dense_grid_schatten4(aj, ah, z, 8, 6)
    fine = dense_grid_schatten4(aj, ah, z, 12, 9)
    assert value == pytest.approx(fine, rel=1e-12)
    assert delta == pytest.approx(abs(fine - coarse) / fine, abs=1e-12)


def test_schatten_grid_independent_of_pair_orientation():
    # the grids are built with the pair on the polar axis: only |R| enters
    c = np.array([0.3, -0.2, 0.5])
    got = []
    for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), np.ones(3) / np.sqrt(3.0)):
        sj = Scatterer(c, gaussian(-1.0, 1.0))
        sh = Scatterer(c + d, gaussian(-1.0, 1.0))
        got.append(schatten4_norm(sj, sh, 1.0, 8, 6))
    (v0, d0) = got[0]
    for v, d in got[1:]:
        assert v == pytest.approx(v0, rel=1e-12)
        assert d == pytest.approx(d0, rel=1e-12)


def test_x0_cross_identity_momentum_vs_coordinate():
    """X_0(z) via r0_kernel coordinate quadrature vs the momentum route.

    The half-transform <k1|t_j(z)|x> is assembled from the off-shell
    tables by a Hankel-type transform; sandwiching two such densities
    around the closed-form resolvent kernel must reproduce the engine's
    x_alpha(0).  Exercises r0_kernel in its operator role (the sandwich
    behind the two-center kernel).
    """
    from scipy.special import eval_legendre, spherical_jn

    from multiscat.lippmann import solve_offshell_t
    from multiscat.multiscatter import Numerics, Scenario, ScenarioEngine
    from multiscat.specfun import AngularGrid

    pot = gaussian(-1.0, 0.5)
    sep = 6.0
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), pot), Scatterer((0, 0, sep), pot)),
        k0=1.0, dir_in=(0, 0, 1), dir_out=(0.6, 0, 0.8),
        numerics=Numerics(lmax=4)))
    eps = 0.2
    z = ComplexEnergy(1.0, eps)
    lmax = 4
    q = eng.grid.nodes
    wq = eng.grid.weights

    r_ball = pot.effective_radius()
    ang = AngularGrid.for_degree(12)
    xg, wg = np.polynomial.legendre.leggauss(32)
    rs = 0.5 * r_ball * (xg + 1.0)
    wr = 0.5 * r_ball * wg

    def density(j, sign):
        # <k1| t_j^0 |x> for sign=-1 (bra side), <x| t_j^0 |k2> for sign=+1
        pj = eng.sc.scatterers[j].potential
        tl = [solve_offshell_t(pj, l, z, eng.grid)[:-1] for l in range(lmax + 1)]
        f = np.stack([
            (wq * q * q * tl[l]) @ spherical_jn(l, np.outer(q, rs))
            for l in range(lmax + 1)])
        kdir = np.asarray(eng.sc.dir_out if sign < 0 else eng.sc.dir_in)
        c = ang.nodes @ kdir
        vals = np.zeros((rs.size, ang.size), dtype=complex)
        for l in range(lmax + 1):
            cl = (2 * l + 1) / (2 * np.pi) ** 1.5
            vals += cl * (sign * 1j) ** l * np.outer(f[l], eval_legendre(l, c))
        return vals

    dj = density(0, -1)
    dh = density(1, +1)
    cj = eng.sc.scatterers[0].center_array
    ch = eng.sc.scatterers[1].center_array
    Xj = (cj[None, None, :] + rs[:, None, None] * ang.nodes[None, :, :]).reshape(-1, 3)
    Yh = (ch[None, None, :] + rs[:, None, None] * ang.nodes[None, :, :]).reshape(-1, 3)
    wx = (wr[:, None] * rs[:, None] ** 2 * ang.weights[None, :]).ravel()
    G = r0_kernel(z, Xj[:, None, :], Yh[None, :, :])
    phase = np.exp(-1j * np.dot(eng.sc.k1, cj) + 1j * np.dot(eng.sc.k2, ch))
    x0_coord = phase * np.einsum("i,i,ij,j,j->", wx, dj.ravel(), G, dh.ravel(), wx)

    x0_mom = eng.x_alpha(0.0, eps)
    assert abs(x0_coord - x0_mom) / abs(x0_mom) < 2e-3


def test_schatten_decay_direction():
    pj = square_well(-1.0, 1.0)
    (v5, d5), (v12, d12) = schatten4_norm_spectral(pj, pj, [5.0, 12.0], 3.0)
    assert v12 < v5
    assert d5 < 0.05 and d12 < 0.05


@pytest.mark.parametrize("k,R_len,expected", [
    (1.0, 5.0, 0.0671055181780924),
    (3.0, 5.0, 0.0662560605324915),
    (5.0, 3.0, 0.102672542887881),
])
def test_schatten_spectral_pinned_values(k, R_len, expected):
    # values of the earlier per-(l, l') loop implementation, square well
    # v0 = -1, a = 1
    pot = square_well(-1.0, 1.0)
    [(value, _)] = schatten4_norm_spectral(pot, pot, [k], R_len)
    assert value == pytest.approx(expected, rel=1e-10)


_DECAY_KS = ([0.5, 1.0, 2.0, 3.0], [3.0, 0.5, 2.0, 1.0])


@pytest.mark.parametrize("pots,R_len,ks_lists", [
    ((square_well(-1.0, 1.0), square_well(-1.0, 1.0)), 5.0, _DECAY_KS),
    ((square_well(-1.0, 1.0), square_well(-0.7, 1.3)), 4.0, _DECAY_KS),
    # k|R| = 0.3 against a top truncation of 65: y_130(0.3) overflows, so
    # the k = 0.1 waves must be built at that k's own truncation
    ((square_well(-1.0, 1.0), square_well(-1.0, 1.0)), 3.0, ([0.1, 6.0],)),
], ids=["wells", "mixed", "wide_k"])
def test_batched_spectral_norms_match_per_k(pots, R_len, ks_lists):
    # one sweep over m at the largest truncation, every k's waves zero-padded
    # to it, against Gaunt tables and waves built per k at each k's own
    # truncation; the k values are those of the wells decay diagnostic, in
    # both orders, and a pair far apart
    for ks in ks_lists:
        batched = schatten4_norm_spectral(*pots, ks, R_len)
        assert len(batched) == len(ks)
        for k, (value, delta) in zip(ks, batched):
            ref_value, ref_delta = spectral_schatten4_per_k(*pots, k, R_len)
            assert value == pytest.approx(ref_value, rel=1e-12)
            # delta differences close numbers: it carries their 1e-12 absolutely
            assert abs(delta - ref_delta) <= 1e-12


@pytest.mark.parametrize("pot", [
    square_well(-1.0, 1.0),
    gaussian(-1.0, 0.5),
    exponential(-2.0, 0.7),
    truncated_coulomb(-1.0, 1.0, 0.01),
    square_well(3.0, 1.0),
], ids=["square_well", "gaussian", "exponential", "truncated_coulomb", "repulsive"])
@pytest.mark.parametrize("scale", [1, 2])
def test_nu_weights_match_a_fixed_rule(pot, scale):
    # the spectral norm's Bessel moments on the LS stage's radial rule,
    # sized for the largest k, against 480 Gauss nodes per support segment
    ks = [0.5, 1.0, 2.0, 3.0]
    nu = _nu_weights(pot, ks, 20, scale)
    ref = nu_fixed_rule(pot, ks, 20, 480)
    assert nu.shape == ref.shape == (4, 21)
    seen = ref > 1e-30 * ref.max()
    assert np.all(np.abs(nu - ref)[seen] <= 1e-12 * ref[seen])


def test_spectral_delta_sees_the_truncation(monkeypatch):
    # the bundled wells at k = 3: three l's leave the refinement (eight more
    # l's) a visible change, the default cap only round-off
    pot = square_well(-1.0, 1.0)
    monkeypatch.setattr(greens, "_SPECTRAL_LMAX_CAP", 3)
    [(_, delta)] = schatten4_norm_spectral(pot, pot, [3.0], 5.0)
    assert delta > 1e-3
    monkeypatch.setattr(greens, "_SPECTRAL_LMAX_CAP", 100)
    [(_, delta)] = schatten4_norm_spectral(pot, pot, [3.0], 5.0)
    assert delta <= 1e-13
