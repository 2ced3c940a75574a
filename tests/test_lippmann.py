import numpy as np
import pytest

from multiscat.lippmann import (
    ComplexEnergy,
    MomentumGrid,
    PoleProximityError,
    _factors,
    _radial_rule,
    ls_spectrum,
    solve_offshell_t,
    vl_matrix,
)
from multiscat.potentials import (
    exponential,
    gaussian,
    square_well,
    truncated_coulomb,
)
from multiscat.radial import onshell_t_lm, phase_shift
from multiscat.specfun import bessel_j_table, gauss_panels, octave_edges
from oracles import factors_per_l, grid_bound_states, offshell_table, offshell_tables
from test_radial import continuous_branch

ALL_KINDS = [
    square_well(-1.0, 1.0),
    gaussian(-1.0, 1.0),
    exponential(-1.0, 1.0),
    truncated_coulomb(-1.0, 1.0, 0.1),
]


def default_grid(k0, p_max=45.0):
    return MomentumGrid.build(k0, p_max, osc_scale=6.0)


def panel_grid(n_inner, n_mid, n_outer, k0=1.0, p_max=45.0):
    """MomentumGrid.build's panels on [0, k0, 2 k0, p_max], with every node count given."""
    nodes, weights = gauss_panels((0.0, k0, 2 * k0, p_max), (n_inner, n_mid, n_outer))
    return MomentumGrid(nodes=nodes, weights=weights, k0=k0, p_max=p_max)


def test_grid_invariants():
    g = default_grid(1.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert np.min(np.abs(g.nodes - g.k0)) > 1e-6


def test_grid_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        MomentumGrid.build(1.0, 1.5)
    for k0 in (0.0, -1.0):
        with pytest.raises(ValueError, match="k0 must be positive"):
            MomentumGrid.build(k0, 10.0)


@pytest.mark.parametrize("nodes, weights, match", [
    ([0.5, 0.5, 2.0], [1.0, 1.0, 1.0], "increasing"),
    ([0.5, 1.5, 2.0], [1.0, 0.0, 1.0], "weights"),
    ([0.5, 1.0, 2.0], [1.0, 1.0, 1.0], "coincide"),
], ids=["repeated_node", "zero_weight", "node_at_k0"])
def test_grid_rejects_bad_rules(nodes, weights, match):
    with pytest.raises(ValueError, match=match):
        MomentumGrid(nodes=np.array(nodes), weights=np.array(weights), k0=1.0, p_max=3.0)


def test_vl_zero_potential():
    assert np.all(vl_matrix(gaussian(0.0, 1.0), 0, [1.0, 2.0]) == 0.0)


def test_vl_symmetry():
    for l in (0, 2):
        a = vl_matrix(square_well(-1.0, 1.0), l, [0.8, 1.7])[0, 1]
        b = vl_matrix(square_well(-1.0, 1.0), l, [1.7, 0.8])[0, 1]
        assert a == pytest.approx(b, rel=1e-12)


def test_vl_square_well_closed_form():
    # V_0(1,1) = (2/pi) v0 * integral_0^1 sin^2 r dr, with the 1D integral
    # evaluated independently as (r - sin r cos r)/2 at r = 1
    exact = (2 / np.pi) * (-1.0) * (1.0 - np.sin(1.0) * np.cos(1.0)) / 2.0
    assert vl_matrix(square_well(-1.0, 1.0), 0, [1.0])[0, 0] == pytest.approx(
        exact, abs=1e-12)


def test_vl_matrix_matches_kernel():
    # an entry does not depend on the other momenta in the set, and it is
    # converged: a rule with twice _radial_rule's nodes on every panel
    # leaves it unchanged
    pot = square_well(-1.0, 1.0)
    V = vl_matrix(pot, 1, [0.5, 1.0, 3.0])
    edges = octave_edges(pot.support_edges())
    rs, ws = gauss_panels(edges, [2 * max(24, int(0.7 * (b - a) * 3.0) + 16)
                                  for a, b in zip(edges[:-1], edges[1:])])
    j = bessel_j_table(1, np.outer(rs, [0.5, 3.0]))[1]
    ref = (2.0 / np.pi) * np.sum(ws * rs * rs * pot.evaluate(rs) * j[:, 0] * j[:, 1])
    assert V[0, 2] == pytest.approx(ref, rel=1e-10)


def test_solve_zero_potential():
    grid = default_grid(1.0)
    t = solve_offshell_t(gaussian(0.0, 1.0), 0, ComplexEnergy(1.0, 0.1), grid)
    assert t.shape == (grid.size + 1,) and np.max(np.abs(t)) == 0.0


def test_offshell_symmetry():
    grid = default_grid(1.0)
    tab = offshell_table(square_well(-1.0, 1.0), 0, ComplexEnergy(1.0, 0.1), grid)
    T = tab.values
    assert np.max(np.abs(T - T.T)) < 1e-10 * np.max(np.abs(T))


def test_born_weak_coupling():
    lam = 1e-4
    grid = default_grid(1.0)
    pot = square_well(-lam, 1.0)
    t = solve_offshell_t(pot, 0, ComplexEnergy(1.0, 0.1), grid)
    v = vl_matrix(pot, 0, np.concatenate([grid.nodes, [grid.k0]]))[:, -1]
    # t/lambda agrees with V/lambda to O(lambda)
    rel = np.max(np.abs(t - v)) / lam
    assert rel < 10 * lam


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_onshell_consistency_with_radial(pot):
    # LS on-shell element vs (2/pi) * phase-shift amplitude; this single
    # test pins the module's normalisation conventions
    k0 = 1.0
    grid = default_grid(k0)
    for l in (0, 1, 2):
        t = solve_offshell_t(pot, l, ComplexEnergy(k0, 0.0), grid)[-1]
        mapped = (2 / np.pi) * onshell_t_lm(phase_shift(pot, l, k0), k0)
        assert abs(t - mapped) / abs(mapped) < 1e-4


def test_eps_continuity():
    grid = default_grid(1.0)
    pot = square_well(-1.0, 1.0)
    on_shell = {}
    for eps in (0.1, 0.05, 0.025):
        on_shell[eps] = solve_offshell_t(pot, 0, ComplexEnergy(1.0, eps), grid)[-1]
    d1 = abs(on_shell[0.1] - on_shell[0.05])
    d2 = abs(on_shell[0.05] - on_shell[0.025])
    assert 1.5 < d1 / d2 < 3.0       # O(eps) scaling of the differences


def test_grid_refinement_convergence():
    pot = square_well(-1.0, 1.0)
    z = ComplexEnergy(1.0, 0.0)
    coarse = solve_offshell_t(pot, 0, z, panel_grid(48, 32, 128))[-1]
    fine = solve_offshell_t(pot, 0, z, panel_grid(96, 64, 256))[-1]
    assert abs(fine - coarse) / abs(fine) < 1e-5


def test_onshell_unitarity_of_extrapolated_element():
    from multiscat.multiscatter import eps_extrapolate
    pot = square_well(-1.0, 1.0)
    grid = default_grid(1.0)
    samples = {eps: solve_offshell_t(pot, 0, ComplexEnergy(1.0, eps), grid)[-1]
               for eps in (0.2, 0.1, 0.05, 0.025)}
    t_ls, _ = eps_extrapolate(samples)
    t_lm = (np.pi / 2) * t_ls        # map back to the phase-shift convention
    assert abs(t_lm.imag + 1.0 * abs(t_lm) ** 2) < 1e-4


def test_pole_proximity_error(monkeypatch):
    # a singular collocation system must surface as PoleProximityError,
    # never as a silent garbage table
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", boom)
    grid = panel_grid(24, 16, 64)
    with pytest.raises(PoleProximityError):
        solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(1.0, 0.0), grid)
    with pytest.raises(PoleProximityError, match="singular"):
        ls_spectrum(square_well(-1.0, 1.0), 0, grid, (0.1,))


def test_grid_energy_mismatch_rejected():
    grid = panel_grid(24, 16, 64)
    with pytest.raises(ValueError):
        solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(2.0, 0.0), grid)


EPS = (0.2, 0.1, 0.05, 0.025)


@pytest.mark.parametrize("pot", ALL_KINDS + [
    pytest.param(square_well(-2.8, 1.0), id="square_well_bound_state")],
    ids=lambda p: p.kind)
def test_spectrum_matches_direct_solve(pot):
    # t(z) = B_l^T X_l(z) B_l from one per-potential call for l = 0..8
    # against the full-table LU oracle per (l, z); eps = 0 (Haftel-Tabakin
    # weights) rides in the same stacked solve and must match to 1e-12
    k0 = 1.0
    grid = default_grid(k0)
    sp = ls_spectrum(pot, 8, grid, EPS + (0.0,))
    assert len(sp.rank) == len(sp.bound_states) == 9
    k = max(sp.rank)
    assert sp.B.shape == (9, k, grid.size + 1)
    assert sp.X.shape == (len(EPS) + 1, 9, k, k)
    n_r = _radial_rule(pot, float(grid.nodes.max()), 1)[0].size
    for l, rank in enumerate(sp.rank):
        # the solves run in the numerical rank of V_l, never above the
        # radial rule's length or the grid plus k0
        assert rank <= min(n_r, grid.size + 1), l
        if pot.kind in ("exponential", "truncated_coulomb"):
            # radial rules longer than the grid: still no (n + 1)^2 table
            assert rank < grid.size + 1, l
    shells = {eps: (sp.half_shell(eps), sp.on_shell(eps)) for eps in EPS + (0.0,)}
    for half, on in shells.values():
        assert half.shape == (9, grid.size + 1) and on.shape == (9,)
    # the oracle builds each l's V_l once and solves every eps from it
    zs = [ComplexEnergy(k0, eps) for eps in shells]
    for l in range(9):
        for z, ref in zip(zs, offshell_tables(pot, l, zs, grid)):
            eps = z.eps
            tol = 1e-12 if eps == 0 else 1e-10
            half, on = shells[eps]
            scale = np.max(np.abs(ref.values))
            table = sp.B[l].T @ sp.x(eps)[l] @ sp.B[l]
            assert np.max(np.abs(table - ref.values)) <= tol * scale, (l, eps)
            col = ref.half_shell()
            assert np.max(np.abs(half[l] - col)) <= tol * np.max(np.abs(col))
            assert abs(on[l] - ref.on_shell) <= tol * abs(ref.on_shell)
            if eps == 0:
                # the direct route solves the half-shell column alone
                direct = solve_offshell_t(pot, l, ComplexEnergy(k0, eps), grid)
                assert np.max(np.abs(direct - col)) <= tol * np.max(np.abs(col)), l


def test_spectrum_pads_beyond_each_rank_with_exact_zeros():
    # each l's factors and solves fill the leading rank[l] rows and columns
    # of the stacked arrays; the ranks differ between l, so the rest is
    # padding, and it must be exactly zero at every eps
    sp = ls_spectrum(square_well(-1.0, 1.0), 8, default_grid(1.0), EPS + (0.0,))
    assert len(set(sp.rank)) > 1
    for l, k in enumerate(sp.rank):
        assert np.any(sp.B[l, k - 1] != 0.0) and np.all(sp.B[l, k:] == 0.0), l
        assert np.all(sp.X[:, l, k:] == 0.0) and np.all(sp.X[:, l, :, k:] == 0.0), l


@pytest.mark.parametrize("pot, grid, counts", [
    (square_well(-2.8, 1.0), default_grid(1.0), [1, 0, 0, 0, 0, 0, 0, 0, 0]),
    (square_well(-12.0, 1.5), default_grid(1.0), [2, 1, 1, 0, 0, 0, 0, 0, 0]),
    (gaussian(-5.0, 1.0), default_grid(1.0), [1, 0, 0, 0, 0, 0, 0, 0, 0]),
    (gaussian(0.0, 1.0), default_grid(1.0), [0] * 9),
    (square_well(3.0, 1.0), default_grid(1.0), [0] * 9),
    # a radial rule longer than this grid: rank n + 1, still counted on the (k x k) side
    (exponential(-20.0, 1.0), panel_grid(8, 8, 16),
     [3, 2, 1, 0, 0, 0, 0, 0, 0]),
], ids=["square_well_one", "square_well_deep", "gaussian", "zero", "repulsive", "full_rank"])
def test_bound_states_match_the_grid_hamiltonian(pot, grid, counts):
    # the rank-k Birman-Schwinger count equals the negative eigenvalues of
    # the (n x n) grid Hamiltonian built from V_l alone
    sp = ls_spectrum(pot, 8, grid, (0.1,))
    assert list(sp.bound_states) == counts
    assert [grid_bound_states(pot, l, grid) for l in range(9)] == counts
    ranks = set(sp.rank)
    if pot.v0 == 0.0:
        assert ranks == {0}
    elif pot.kind == "exponential":
        assert grid.size + 1 in ranks
    else:
        assert max(ranks) < grid.size


@pytest.mark.parametrize("pot, grid", [(p, default_grid(1.0)) for p in ALL_KINDS] + [
    (square_well(-12.0, 1.5), default_grid(1.0)),
    (exponential(-20.0, 1.0), panel_grid(8, 8, 16)),
    (gaussian(0.0, 1.0), default_grid(1.0)),
], ids=[p.kind for p in ALL_KINDS] + ["square_well_deep", "full_rank", "zero"])
def test_stacked_factors_match_the_per_l_oracle(pot, grid):
    # one stacked QR, square SVD, rank cut and sign-form Birman-Schwinger
    # count against one full SVD and one general count per l: the same ranks
    # and counts, B row by row up to one sign per row (two decompositions of
    # M_l, measured at worst 1.1e-14 of max|B0|, on the exponential), and
    # exact zeros beyond each rank; the oracle's general middle factor
    # C_l = U^T diag(sign c) U is s I on each rank, s = sign(v0)
    B, s, rank, bound = _factors(pot, 8, grid)
    B0, C0, rank0, bound0 = factors_per_l(pot, 8, grid)
    assert rank == rank0 and bound == bound0
    assert B.shape == B0.shape
    sign = np.where(np.sum(B * B0, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    assert np.max(np.abs(sign * B - B0), initial=0.0) <= 1e-13 * np.max(np.abs(B0), initial=0.0)
    assert s == np.sign(pot.v0)
    for l, k in enumerate(rank):
        assert np.all(B[l, k:] == 0.0)
        assert np.max(np.abs(C0[l] - s * np.diag(np.arange(C0.shape[1]) < k)),
                      initial=0.0) <= 1e-14, l


@pytest.mark.parametrize("grid, wide", [(panel_grid(8, 8, 16), False),
                                        (panel_grid(64, 48, 320, p_max=12.0), True)],
                         ids=["tall", "wide"])
@pytest.mark.parametrize("pot", ALL_KINDS + [square_well(3.0, 1.0)],
                         ids=[p.kind for p in ALL_KINDS] + ["repulsive"])
def test_sign_form_reproduces_the_vl_matrix(pot, grid, wide):
    # s B_l^T B_l against vl_matrix's independent J^T diag(c) J on the grid
    # plus k0, through both forms of _factors: every M_l wider than long on
    # the dense grid, every one taller than wide on the small grid; measured
    # at worst 2.6e-14 of max|V_l| (the well, tall)
    momenta = np.concatenate([grid.nodes, [grid.k0]])
    assert (_radial_rule(pot, float(momenta.max()), 1)[0].size < momenta.size) == wide
    B, s, rank, _ = _factors(pot, 8, grid)
    for l in range(9):
        V = vl_matrix(pot, l, momenta)
        assert np.max(np.abs(s * B[l].T @ B[l] - V)) <= 1e-13 * np.max(np.abs(V)), l


@pytest.mark.parametrize("pot, counts", [
    (square_well(-12.0, 1.5), [2, 1, 1, 0]),
    (square_well(-2.8, 1.0), [1, 0, 0, 0]),
], ids=["deep", "one"])
def test_bound_states_obey_levinson(pot, counts):
    # Levinson (1949): eta_l(0+) - eta_l(inf) = pi * (bound states of l) on
    # the branch continuous in k; the LS stage's count of the grid bound
    # states must agree with the radial phase shifts
    ks = np.geomspace(0.01, 80.0, 120)
    sp = ls_spectrum(pot, 3, default_grid(1.0), (0.1,))
    for l in range(4):
        eta = continuous_branch(pot, l, ks)
        assert sp.bound_states[l] == round((eta[0] - eta[-1]) / np.pi) == counts[l], l


def test_spectrum_zero_potential_has_rank_zero():
    grid = panel_grid(24, 16, 64)
    sp = ls_spectrum(gaussian(0.0, 1.0), 2, grid, (0.2, 0.1))
    assert sp.rank == (0, 0, 0) and sp.bound_states == (0, 0, 0)
    assert sp.B.shape == (3, 0, grid.size + 1)
    assert sp.X.shape == (2, 3, 0, 0)
    half = sp.half_shell(0.1)
    assert half.shape == (3, grid.size + 1) and np.all(half == 0.0)
    assert np.all(sp.on_shell(0.2) == 0.0) and sp.residual == 0.0


def test_spectrum_grid_sandwich():
    # the factors' grid block is the table's bilinear form on the grid:
    # sum (a B_g^T) X (B_g b), as Born-3 contracts it
    grid = panel_grid(24, 16, 64)
    pot = square_well(-1.0, 1.0)
    sp = ls_spectrum(pot, 1, grid, (0.2, 0.07))
    ref = offshell_table(pot, 1, ComplexEnergy(1.0, 0.07), grid).values
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3, grid.size)) + 1j * rng.normal(size=(2, 3, grid.size))
    want = np.sum((a @ ref[:-1, :-1]) * b)
    Bg = sp.B[1, :, :-1].T
    got = np.sum((a @ Bg @ sp.x(0.07)[1]) * (b @ Bg))
    assert abs(got - want) <= 1e-10 * abs(want)
    assert np.max(np.abs(sp.half_shell(0.07)[1] - ref[:, -1])) <= 1e-10 * np.max(np.abs(ref))
    assert sp.X.shape[0] == 2


def test_spectrum_rejects_real_energy():
    # eps = 0 is answered only by a stage that was asked to solve it
    sp = ls_spectrum(square_well(-1.0, 1.0), 0, panel_grid(24, 16, 64), (0.1,))
    with pytest.raises(ValueError):
        sp.half_shell(0.0)
    with pytest.raises(ValueError):
        sp.on_shell(0.0)
    # and no stage solves at a negative eps
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        ls_spectrum(square_well(-1.0, 1.0), 0, panel_grid(24, 16, 64), (0.1, -0.01))


@pytest.mark.parametrize("eps", [0.05, 0.1000001])
def test_spectrum_answers_only_its_eps(eps):
    # an eps outside the solved set raises, for every l at once: nothing is
    # solved on request
    grid = panel_grid(24, 16, 64)
    sp = ls_spectrum(square_well(-1.0, 1.0), 2, grid, (0.2, 0.1))
    with pytest.raises(ValueError, match="solved at eps"):
        sp.half_shell(eps)
    with pytest.raises(ValueError, match="solved at eps"):
        sp.on_shell(eps)
    with pytest.raises(ValueError, match="solved at eps"):
        sp.x(eps)
    with pytest.raises(ValueError, match="solved at eps"):
        sp.half_shell([0.2, eps])


def test_spectrum_answers_a_sequence_of_eps_row_by_row():
    # a sequence of eps, in any order, stacks what each eps gives alone,
    # bit for bit
    sp = ls_spectrum(square_well(-1.0, 1.0), 2, panel_grid(24, 16, 64), (0.2, 0.1, 0.0))
    eps = [0.0, 0.2, 0.1, 0.2]
    assert np.array_equal(sp.x(eps), np.stack([sp.x(e) for e in eps]))
    assert np.array_equal(sp.half_shell(eps), np.stack([sp.half_shell(e) for e in eps]))


def test_half_shell_table_is_formed_from_the_spectrum_factors():
    # half_shell reads the table ls_spectrum formed once: B^T X(eps) B[:, -1]
    # from the spectrum's own B and X, bit for bit at every solved eps and
    # for an unordered sequence of them, and on_shell is its k0 entry
    sp = ls_spectrum(square_well(-1.0, 1.0), 3, panel_grid(24, 16, 64), (0.2, 0.1, 0.0))
    Bt = sp.B.transpose(0, 2, 1)
    want = {}
    for e in sp.eps:
        xb = sp.x(e) @ sp.B[:, :, -1:]
        want[e] = (Bt @ xb.real + 1j * (Bt @ xb.imag))[..., 0]
        assert np.array_equal(sp.half_shell(e), want[e]), e
        assert np.array_equal(sp.on_shell(e), want[e][:, -1]), e
        # and it is the complex product B^T X B[:, -1] up to round-off
        ref = np.stack([B.T @ X @ B[:, -1] for B, X in zip(sp.B, sp.x(e))])
        assert np.max(np.abs(want[e] - ref)) <= 1e-14 * np.max(np.abs(ref)), e
    eps = [0.1, 0.0, 0.2, 0.1]
    assert np.array_equal(sp.half_shell(eps), np.stack([want[e] for e in eps]))


def test_corrupted_solve_raises_pole_proximity(monkeypatch):
    solve = np.linalg.solve

    def corrupted(a, b):
        return solve(a, b) * (1.0 + 1e-6)

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(PoleProximityError):
        ls_spectrum(square_well(-1.0, 1.0), 0, panel_grid(24, 16, 64),
                    (0.1, 0.05))
    with pytest.raises(PoleProximityError, match="ill-conditioned"):
        solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(1.0, 0.05),
                         panel_grid(24, 16, 64))
