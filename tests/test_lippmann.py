import numpy as np
import pytest

from multiscat.greens import ComplexEnergy
from multiscat.lippmann import (
    MomentumGrid,
    PoleProximityError,
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

ALL_KINDS = [
    square_well(-1.0, 1.0),
    gaussian(-1.0, 1.0),
    exponential(-1.0, 1.0),
    truncated_coulomb(-1.0, 1.0, 0.1),
]


def default_grid(k0, p_max=45.0):
    return MomentumGrid.build(k0, p_max, osc_scale=6.0)


def test_grid_invariants():
    g = default_grid(1.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert np.min(np.abs(g.nodes - g.k0)) > 1e-6


def test_grid_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        MomentumGrid.build(1.0, 1.5)


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
    # converged: doubling the radial nodes leaves it unchanged
    ms = np.array([0.5, 1.0, 3.0])
    V = vl_matrix(square_well(-1.0, 1.0), 1, ms)
    pair = vl_matrix(square_well(-1.0, 1.0), 1, [0.5, 3.0], scale=2)
    assert V[0, 2] == pytest.approx(pair[0, 1], rel=1e-10)


def test_solve_zero_potential():
    grid = default_grid(1.0)
    tab = solve_offshell_t(gaussian(0.0, 1.0), 0, ComplexEnergy(1.0, 0.1), grid)
    assert np.max(np.abs(tab.values)) == 0.0


def test_offshell_symmetry():
    grid = default_grid(1.0)
    tab = solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(1.0, 0.1), grid)
    T = tab.values
    assert np.max(np.abs(T - T.T)) < 1e-10 * np.max(np.abs(T))


def test_born_weak_coupling():
    lam = 1e-4
    grid = default_grid(1.0)
    pot = square_well(-lam, 1.0)
    tab = solve_offshell_t(pot, 0, ComplexEnergy(1.0, 0.1), grid)
    V = vl_matrix(pot, 0, tab.momenta)
    # t/lambda agrees with V/lambda to O(lambda)
    rel = np.max(np.abs(tab.values - V)) / lam
    assert rel < 10 * lam


@pytest.mark.parametrize("pot", ALL_KINDS, ids=lambda p: p.kind)
def test_onshell_consistency_with_radial(pot):
    # LS on-shell element vs (2/pi) * phase-shift amplitude; this single
    # test pins the module's normalisation conventions
    k0 = 1.0
    grid = default_grid(k0)
    for l in (0, 1, 2):
        tab = solve_offshell_t(pot, l, ComplexEnergy(k0, 0.0), grid)
        mapped = (2 / np.pi) * onshell_t_lm(phase_shift(pot, l, k0), k0)
        assert abs(tab.on_shell - mapped) / abs(mapped) < 1e-4


def test_eps_continuity():
    grid = default_grid(1.0)
    pot = square_well(-1.0, 1.0)
    on_shell = {}
    for eps in (0.1, 0.05, 0.025):
        on_shell[eps] = solve_offshell_t(pot, 0, ComplexEnergy(1.0, eps),
                                         grid).on_shell
    d1 = abs(on_shell[0.1] - on_shell[0.05])
    d2 = abs(on_shell[0.05] - on_shell[0.025])
    assert 1.5 < d1 / d2 < 3.0       # O(eps) scaling of the differences


def test_grid_refinement_convergence():
    pot = square_well(-1.0, 1.0)
    z = ComplexEnergy(1.0, 0.0)
    coarse = solve_offshell_t(pot, 0, z, MomentumGrid.build(1.0, 45.0, 48, 32,
                                                            128)).on_shell
    fine = solve_offshell_t(pot, 0, z, MomentumGrid.build(1.0, 45.0, 96, 64,
                                                          256)).on_shell
    assert abs(fine - coarse) / abs(fine) < 1e-5


def test_onshell_unitarity_of_extrapolated_element():
    from multiscat.multiscatter import eps_extrapolate
    pot = square_well(-1.0, 1.0)
    grid = default_grid(1.0)
    samples = {eps: solve_offshell_t(pot, 0, ComplexEnergy(1.0, eps), grid).on_shell
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
    grid = MomentumGrid.build(1.0, 45.0, 24, 16, 64)
    with pytest.raises(PoleProximityError):
        solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(1.0, 0.0), grid)


def test_grid_energy_mismatch_rejected():
    grid = MomentumGrid.build(1.0, 45.0, 24, 16, 64)
    with pytest.raises(ValueError):
        solve_offshell_t(square_well(-1.0, 1.0), 0, ComplexEnergy(2.0, 0.0), grid)


# the rank the solves run in: the radial rule's length on the grid of
# default_grid(1.0), else the grid plus k0 (see ls_spectrum)
FACTOR_BRANCH = {"square_well": "radial", "gaussian": "radial",
                 "exponential": "grid", "truncated_coulomb": "grid"}
EPS = (0.2, 0.1, 0.05, 0.025)


@pytest.mark.parametrize("pot", ALL_KINDS + [
    pytest.param(square_well(-2.8, 1.0), id="square_well_bound_state")],
    ids=lambda p: p.kind)
def test_spectrum_matches_direct_solve(pot):
    # t(z) = B^T X(z) B from one batched solve per l against one LU solve per z
    k0 = 1.0
    grid = default_grid(k0)
    for l in range(9):
        sp = ls_spectrum(pot, l, grid, EPS)
        identity = (sp.B.shape == (grid.size + 1,) * 2
                    and np.array_equal(sp.B, np.eye(grid.size + 1)))
        assert identity == (FACTOR_BRANCH[pot.kind] == "grid"), l
        if l == 0 and pot.v0 == -2.8:
            # sqrt(2.8) > pi/2: one s-wave bound state, one negative eigenvalue
            assert np.sum(sp.lam < 0) == 1
        for eps in EPS:
            ref = solve_offshell_t(pot, l, ComplexEnergy(k0, eps), grid)
            scale = np.max(np.abs(ref.values))
            X = sp.X[EPS.index(eps)]
            table = X if identity else sp.B.T @ X @ sp.B
            assert np.max(np.abs(table - ref.values)) <= 1e-10 * scale, (l, eps)
            col = ref.half_shell()
            assert np.max(np.abs(sp.half_shell(eps) - col)) <= 1e-10 * np.max(np.abs(col))
            assert abs(sp.on_shell(eps) - ref.on_shell) <= 1e-10 * abs(ref.on_shell)


def test_spectrum_solves_other_eps_and_grid_sandwich():
    # an eps outside the solved set is solved on request; grid_sandwich is
    # the table's bilinear form on the grid
    grid = MomentumGrid.build(1.0, 45.0, 24, 16, 64)
    pot = square_well(-1.0, 1.0)
    sp = ls_spectrum(pot, 1, grid, (0.2, 0.1))
    ref = solve_offshell_t(pot, 1, ComplexEnergy(1.0, 0.07), grid).values
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3, grid.size)) + 1j * rng.normal(size=(2, 3, grid.size))
    want = np.sum((a @ ref[:-1, :-1]) * b)
    assert abs(sp.grid_sandwich(a, b, 0.07) - want) <= 1e-10 * abs(want)
    assert np.max(np.abs(sp.half_shell(0.07) - ref[:, -1])) <= 1e-10 * np.max(np.abs(ref))
    assert sp.X.shape[0] == 2


def test_spectrum_rejects_real_energy():
    sp = ls_spectrum(square_well(-1.0, 1.0), 0, MomentumGrid.build(1.0, 45.0, 24, 16, 64),
                     (0.1,))
    with pytest.raises(ValueError):
        sp.half_shell(0.0)


def test_corrupted_solve_raises_pole_proximity(monkeypatch):
    solve = np.linalg.solve

    def corrupted(a, b):
        return solve(a, b) * (1.0 + 1e-6)

    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(PoleProximityError):
        ls_spectrum(square_well(-1.0, 1.0), 0, MomentumGrid.build(1.0, 45.0, 24, 16, 64),
                    (0.1, 0.05))
