from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from multiscat import multiscatter
from multiscat.cli import validate_config
from multiscat.lippmann import ComplexEnergy, MomentumGrid
from multiscat.multiscatter import (
    ExtrapolationError,
    Numerics,
    Scenario,
    ScenarioEngine,
    TailEstimateError,
    _jsonify,
    _pv_operator,
    _spline_slopes,
    alpha_list_problem,
    eps_extrapolate,
)
from multiscat.potentials import Scatterer, gaussian, square_well
from multiscat.specfun import (
    AngularGrid,
    bessel_j_table,
    gauss_panels,
    legendre_table,
    sph_index,
    ylm_table,
)

from oracles import (
    offshell_table,
    onshell_chain,
    onshell_series_term,
    pv_operator_dense,
    spectral_schatten4_per_k,
    spline_slopes_dense,
    standing_companion,
)


# ---------------------------------------------------------------------------
# eps extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_constant():
    lim, err = eps_extrapolate({0.2: 3.5 + 1j, 0.1: 3.5 + 1j, 0.05: 3.5 + 1j})
    assert lim == pytest.approx(3.5 + 1j, abs=1e-14)
    assert err < 1e-14


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=10, allow_nan=False),
       st.complex_numbers(max_magnitude=10, allow_nan=False))
def test_extrapolate_linear_exact(c, b):
    samples = {e: c + b * e for e in (0.4, 0.2, 0.1)}
    lim, _ = eps_extrapolate(samples)
    assert abs(lim - c) < 1e-12 * (1 + abs(c) + abs(b))


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=5, allow_nan=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False))
def test_extrapolate_quadratic_exact(c, b, d):
    samples = {e: c + b * e + d * e * e for e in (0.4, 0.2, 0.1, 0.05)}
    lim, _ = eps_extrapolate(samples)
    assert abs(lim - c) < 1e-10 * (1 + abs(c) + abs(b) + abs(d))


def test_extrapolate_preconditions():
    with pytest.raises(ExtrapolationError):
        eps_extrapolate({0.1: 1.0, 0.05: 1.0})
    with pytest.raises(ExtrapolationError):
        eps_extrapolate({0.1: 1.0, 0.099: 1.0, 0.098: 1.0})


def test_extrapolate_arrays_match_the_scalar_calls_bit_for_bit():
    # one tableau over array samples is the scalar extrapolation of each
    # element on its own, bit for bit
    rng = np.random.default_rng(1)
    eps = (0.05, 0.2, 0.025, 0.1)
    samples = {e: rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9)) for e in eps}
    lim, err = eps_extrapolate(samples)
    assert lim.shape == err.shape == (7, 9) and err.dtype == float
    for idx in np.ndindex(7, 9):
        one = eps_extrapolate({e: complex(samples[e][idx]) for e in eps})
        assert type(one[0]) is complex and type(one[1]) is float
        assert lim[idx] == one[0] and err[idx] == one[1], idx


# ---------------------------------------------------------------------------
# scenario and matrix elements
# ---------------------------------------------------------------------------

def test_scenario_normalises_directions():
    sc = Scenario(scatterers=(Scatterer((0, 0, 0), square_well(-1, 1)),),
                  k0=1.0, dir_in=(0, 0, 2.0), dir_out=(3.0, 0, 0))
    assert np.linalg.norm(sc.dir_in) == pytest.approx(1.0)
    assert np.allclose(sc.k1, [1.0, 0, 0])


def test_scenario_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Scenario(scatterers=(), k0=1.0)
    with pytest.raises(ValueError):
        Scenario(scatterers=(Scatterer((0, 0, 0), square_well(-1, 1)),), k0=-1.0)
    with pytest.raises(ValueError, match="dir_out must be a nonzero direction"):
        Scenario(scatterers=(Scatterer((0, 0, 0), square_well(-1, 1)),), k0=1.0,
                 dir_out=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("direction, unit", [
    ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((float("nan"), 0.0, 1.0), None),
    ((float("inf"), 0.0, 0.0), None),
], ids=["huge", "tiny", "nan", "inf"])
def test_scenario_direction_of_extreme_length(direction, unit):
    # |v|^2 overflows at 1e200 and underflows at 1e-200, but both lengths
    # are finite and nonzero; a non-finite component has no length at all
    sc = (Scatterer((0, 0, 0), square_well(-1, 1)),)
    if unit is None:
        with pytest.raises(ValueError,
                           match="dir_in must be a nonzero direction of finite length"):
            Scenario(scatterers=sc, k0=1.0, dir_in=direction)
    else:
        assert Scenario(scatterers=sc, k0=1.0, dir_in=direction).dir_in == unit


def test_t_elem_zero_potential():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), gaussian(0.0, 1.0)),
                    Scatterer((0, 0, 5.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2)))
    assert eng.t_elem(0, 0.1) == 0.0


def test_t_elem_translation_covariance():
    pot = square_well(-1.0, 1.0)
    base = Scenario(scatterers=(Scatterer((0, 0, 0), pot),
                                Scatterer((0, 0, 5.0), pot)),
                    k0=1.0, dir_in=(0, 0, 1), dir_out=(0.6, 0, 0.8),
                    numerics=Numerics(lmax=4))
    shift = np.array([0.7, -0.4, 1.1])
    moved = Scenario(scatterers=(Scatterer(tuple(shift), pot),
                                 Scatterer((0, 0, 5.0), pot)),
                     k0=1.0, dir_in=(0, 0, 1), dir_out=(0.6, 0, 0.8),
                     numerics=Numerics(lmax=4))
    e1 = ScenarioEngine(base)
    e2 = ScenarioEngine(moved)
    t1 = e1.t_elem(0, 0.1)
    t2 = e2.t_elem(0, 0.1)
    expected = t1 * np.exp(-1j * np.dot(e1.sc.k1 - e1.sc.k2, shift))
    assert t2 == pytest.approx(expected, rel=1e-12)


def test_t_elem_identity_phase():
    # x_j = 0: the phase factor is exactly 1, the element is the l-sum only,
    # which depends on k1.k2 alone, so swapping dir_in and dir_out keeps it
    pot = square_well(-1.0, 1.0)

    def engine(dir_in, dir_out):
        return ScenarioEngine(Scenario(
            scatterers=(Scatterer((0, 0, 0), pot), Scatterer((0, 0, 5.0), pot)),
            k0=1.0, dir_in=dir_in, dir_out=dir_out, numerics=Numerics(lmax=4)))

    t = engine((0, 0, 1), (0.6, 0, 0.8)).t_elem(0, 0.1)
    assert abs(t.imag) > 0          # genuinely complex at finite eps
    assert engine((0.6, 0, 0.8), (0, 0, 1)).t_elem(0, 0.1) == t


# ---------------------------------------------------------------------------
# pair terms and the verification machine
# ---------------------------------------------------------------------------

def test_x_alpha_preconditions(wells_engine):
    with pytest.raises(ValueError):
        wells_engine.x_alpha(0.5, 0.0)
    with pytest.raises(ValueError):
        wells_engine.x_alpha(0.5, 0.1, pair=(0, 0))


def test_x_lattice_tail_check_raises_for_the_first_failing_alpha():
    # p_max barely above the 2 k0 panel edge leaves a momentum tail of
    # 2-39 % of |X_alpha| at eps 0.1 (measured per alpha: 3.5e-2 at 0.5,
    # 2.3e-2 at 0.75, 0.21 at 1.25, 0.39 at 0); against a tolerance of
    # 0.1 the lattice raises with the estimate of alpha 1.25, the first
    # failing entry of its row, as the single-alpha call does (to rounding:
    # the row sums of a block and of one row may differ in the last bit)
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
                    Scatterer((0, 0, 3.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2, p_max=2.5, tail_tol=0.1, n_inner=16, n_mid=16)))
    with pytest.raises(TailEstimateError, match="increase p_max") as lattice:
        eng.x_lattice((0.5, 0.75, 1.25, 0.0), [0.1])
    for a in (0.5, 0.75):
        eng.x_lattice([a], [0.1])
    estimates = {}
    for a in (1.25, 0.0):
        with pytest.raises(TailEstimateError) as single:
            eng.x_lattice([a], [0.1])
        estimates[a] = single.value.estimate
    assert type(lattice.value.estimate) is float and lattice.value.estimate > 0
    assert lattice.value.estimate == pytest.approx(estimates[1.25], rel=1e-12)
    assert lattice.value.estimate != pytest.approx(estimates[0.0], rel=1e-3)
    assert f"{estimates[1.25]:.3e}" in str(lattice.value)
    # a block of two eps raises for the first failing entry of its first
    # failing row.  At tail_tol 0.04 the row of eps 0.1 first fails at
    # alpha 1.25 (0.5 and 0.75 pass at 3.5e-2 and 2.3e-2), while the row
    # of eps 0.2 already fails at alpha 0.5 (4.3e-2), which an alpha-major
    # scan would name first
    strict = ScenarioEngine(replace(eng.sc, numerics=replace(eng.sc.numerics, tail_tol=0.04)))
    with pytest.raises(TailEstimateError) as block:
        strict.x_lattice((0.5, 0.75, 1.25, 0.0), [0.1, 0.2])
    strict.x_lattice((0.5, 0.75), [0.1])
    with pytest.raises(TailEstimateError) as first:
        strict.x_lattice([1.25], [0.1])
    with pytest.raises(TailEstimateError) as alpha_major:
        strict.x_lattice([0.5], [0.2])
    assert block.value.estimate == pytest.approx(first.value.estimate, rel=1e-12)
    assert block.value.estimate != pytest.approx(alpha_major.value.estimate, rel=1e-3)
    assert f"{first.value.estimate:.3e}" in str(block.value)


def test_x_alpha_zero_potential():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), gaussian(0.0, 1.0)),
                    Scatterer((0, 0, 5.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2)))
    assert eng.x_alpha(0.0, 0.1) == 0.0


def test_x_lattice_rows_are_x_alpha(wells_engine):
    # one call over several eps; each row is what x_alpha gives alone, bit
    # for bit
    alphas, eps_seq = [0.0, 0.5, 1.5], [0.1, 0.05]
    lattice, tails = wells_engine.x_lattice(alphas, eps_seq)
    assert lattice.shape == (2, 3) and tails.shape == (2,)
    for eps, row, tail in zip(eps_seq, lattice, tails):
        assert [complex(v) for v in row] == [wells_engine.x_alpha(a, eps) for a in alphas]
        assert 0.0 < tail < wells_engine.sc.numerics.tail_tol


def test_pv_operator_closed_form(wells_engine):
    # S = 1: PV int_0^P dk k^2/(q^2 - k^2) = -P + (q/2) ln((P+q)/(P-q))
    q, P = wells_engine.grid.nodes, wells_engine.grid.p_max
    expected = (2.0 / (np.pi * q)) * (-P + 0.5 * q * np.log((P + q) / (P - q)))
    Sy = wells_engine.pv @ np.ones_like(q)
    assert np.max(np.abs(Sy - expected) / np.abs(expected)) < 1e-12


def test_pv_operator_matches_nodewise_oracle(wells_engine):
    rng = np.random.default_rng(7)
    q = wells_engine.grid.nodes
    S = (rng.standard_normal(q.size) + 1j * rng.standard_normal(q.size)) / (1 + q * q)
    ref = standing_companion(wells_engine.grid, S)
    assert np.max(np.abs(wells_engine.pv @ S - ref)) <= 1e-12 * np.max(np.abs(ref))


def _random_panel_grid():
    rng = np.random.default_rng(3)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 9.0, 4)), [10.0]])
    nodes, weights = gauss_panels(edges, list(rng.integers(5, 40, 5)))
    return MomentumGrid(nodes, weights, float(edges[1]), 10.0)


@pytest.mark.parametrize("grid", ["wells", "gaussians", "random_panels"])
def test_pv_operator_is_the_dense_construction_bit_for_bit(wells_engine, overlap_engine, grid):
    # the banded, in-place build does the dense construction's arithmetic
    # in the same order
    grid = {"wells": wells_engine.grid, "gaussians": overlap_engine.grid,
            "random_panels": _random_panel_grid()}[grid]
    assert np.array_equal(_spline_slopes(grid.nodes), spline_slopes_dense(grid.nodes))
    pv = _pv_operator(grid)
    assert pv.shape == (grid.size, grid.size) and np.array_equal(pv, pv_operator_dense(grid))


@pytest.mark.parametrize("nodes", ["engine_grid", "random"])
def test_spline_slopes_match_not_a_knot_spline(wells_engine, nodes):
    from scipy.interpolate import CubicSpline  # test-only oracle

    if nodes == "engine_grid":
        q = wells_engine.grid.nodes
    else:
        q = np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, 60))
    D = _spline_slopes(q)
    eye = np.eye(q.size)
    ref = CubicSpline(q, eye)(q, 1)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(D - ref)) <= 1e-13 * scale
    # natural end rows give slopes far outside that tolerance
    natural = CubicSpline(q, eye, bc_type="natural")(q, 1)
    assert np.max(np.abs(natural - ref)) > 1e-3 * scale
    # a not-a-knot spline reproduces cubics
    x = q / q[-1]
    assert np.max(np.abs(D @ x ** 3 - 3 * x * x / q[-1])) <= 1e-10 * 3 / q[-1]


def test_finite_eps_phase_identity(wells_engine):
    # X_alpha(z) = e^{i alpha sqrt(z)} X_0(z) already at finite eps
    eps = 0.1
    z = complex(1.0, eps)
    x0 = wells_engine.x_alpha(0.0, eps)
    for a in (0.5, 1.5):
        xa = wells_engine.x_alpha(a, eps)
        assert xa == pytest.approx(np.exp(1j * a * np.sqrt(z)) * x0, rel=2e-4)


def test_x0_structconst_requires_gap(overlap_engine):
    with pytest.raises(ValueError):
        overlap_engine.x0_structconst()


def test_x0_structconst_swave_dominated():
    # k0 a << 1: the (0,0) term alone carries the sum to ~1%
    pot = square_well(-1.0, 0.2)
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), pot), Scatterer((0, 0, 2.0), pot)),
        k0=0.5, dir_in=(0, 0, 1), dir_out=(0.6, 0, 0.8),
        numerics=Numerics(lmax=6)))
    by_lmax = eng.x0_structconst()
    assert len(by_lmax) == 7
    swave, full = by_lmax[0], by_lmax[-1]
    assert abs(swave - full) / abs(full) < 0.01


def test_born_term_orders(wells_engine):
    eps = 0.05
    b1 = wells_engine.born_term(1, eps)
    t0 = wells_engine.t_elem(0, eps)
    t1 = wells_engine.t_elem(1, eps)
    assert b1 == pytest.approx(t0 + t1, rel=1e-12)
    b2 = wells_engine.born_term(2, eps)
    pair_sum = (wells_engine.x_alpha(0.0, eps, (0, 1))
                + wells_engine.x_alpha(0.0, eps, (1, 0)))
    assert b2 == pytest.approx(pair_sum, rel=1e-12)


def _extrapolated_born_term(eng, order):
    return eps_extrapolate({e: eng.born_term(order, e) for e in eng.sc.eps_sequence()})[0]


def test_onshell_chain_gives_the_order_two_limit(wells_engine):
    # the path (0, 1) is x0_structconst's sum; summed over both paths it is
    # the eps -> 0 limit of born_term(2)
    sc = wells_engine.sc
    x0 = wells_engine.x0_structconst()[-1]
    assert abs(onshell_chain(sc, (0, 1)) - x0) <= 1e-13 * abs(x0)
    ref = onshell_series_term(sc, 2)
    assert abs(_extrapolated_born_term(wells_engine, 2) - ref) <= 1e-3 * abs(ref)


@pytest.mark.xfail(strict=True, reason="_born3 and its oracle _born3_brute_force share a "
                   "spurious factor 4 pi/(2l+1) per l: the extrapolated term is 14.5 "
                   "times the on-shell chain")
def test_born3_extrapolates_to_the_onshell_chain(wells_engine):
    sc = wells_engine.sc
    eng = ScenarioEngine(replace(sc, numerics=replace(sc.numerics, n_max=3)))
    ref = onshell_series_term(sc, 3)
    assert abs(_extrapolated_born_term(eng, 3) - ref) <= 5e-3 * abs(ref)


def _brute_force_rule(eng):
    """Angular rule of degree ceil(p_max * max_sep) + 2*lmax + 30.

    High enough to integrate the full plane wave e^{i q k^.D}, with no
    expansion, at every grid momentum.
    """
    return AngularGrid.for_degree(int(np.ceil(eng.p_max * eng.max_sep))
                                  + 2 * eng.sc.numerics.lmax + 30)


@lru_cache(maxsize=32)
def _direct_table(eng, s, l, eps):
    """t_l of scatterer s by the direct LU solve, independent of the engine's spectra.

    Memoised: the brute-force oracles below ask for the same (engine, s, l,
    eps) table once per term and per pair; three_engine has 32 of them.
    """
    return offshell_table(eng.sc.scatterers[s].potential, l,
                          ComplexEnergy(eng.sc.k0, eps), eng.grid)


def _brute_force_factors(eng, ang, s, D, direction, eps):
    """e^{i q k^.D} T_s(k^, q) on (ang node, grid momentum), T_s the half-shell amplitude."""
    lmax = eng.sc.numerics.lmax
    cl = (2 * np.arange(lmax + 1) + 1) / (4.0 * np.pi)
    t = np.stack([_direct_table(eng, s, l, eps).half_shell()[:-1] for l in range(lmax + 1)])
    P = np.stack([eval_legendre(l, ang.nodes @ np.asarray(direction))
                  for l in range(lmax + 1)])
    wave = np.exp(1j * np.outer(ang.nodes @ D, eng.grid.nodes))
    return wave * ((P * cl[:, None]).T @ t)


def _born3_brute_force(eng, j, h, k, eps):
    """Reference Born-3 term: the full plane wave on _brute_force_rule."""
    sc = eng.sc
    z = complex(sc.k0 ** 2, eps)
    lmax = sc.numerics.lmax
    q, w = eng.grid.nodes, eng.grid.weights
    ang = _brute_force_rule(eng)
    Y = ylm_table(lmax, ang.nodes)
    D1 = sc.scatterers[j].center_array - sc.scatterers[h].center_array
    D2 = sc.scatterers[h].center_array - sc.scatterers[k].center_array
    A = (Y * ang.weights) @ _brute_force_factors(eng, ang, j, D1, sc.dir_out, eps)
    B = (np.conj(Y) * ang.weights) @ _brute_force_factors(eng, ang, k, D2, sc.dir_in, eps)
    denom = w * q * q / (z - q * q)
    total = 0.0 + 0.0j
    for l in range(lmax + 1):
        th = _direct_table(eng, h, l, eps).values[:-1, :-1]
        for m in range(-l, l + 1):
            a = A[sph_index(l, m)] * denom
            b = B[sph_index(l, m)] * denom
            total += (4.0 * np.pi / (2 * l + 1)) * (a @ th @ b)
    phase = np.exp(-1j * np.dot(sc.k1, sc.scatterers[j].center_array)
                   + 1j * np.dot(sc.k2, sc.scatterers[k].center_array))
    return complex(phase * total)


@pytest.fixture(scope="module")
def three_engine():
    """Two wells and a Gaussian off axis, lmax 3, and a second Gaussian at
    the first well's centre: pairs (0, 3) and (3, 0) have D = 0."""
    return ScenarioEngine(Scenario(
        scatterers=(Scatterer((0.3, -0.2, 0.1), square_well(-1.0, 1.0)),
                    Scatterer((2.0, 1.0, 2.5), gaussian(-0.8, 0.9)),
                    Scatterer((-1.5, 1.8, -1.2), square_well(-0.7, 1.2)),
                    Scatterer((0.3, -0.2, 0.1), gaussian(-0.5, 0.6))),
        k0=1.1, dir_in=(0.2, 0.3, 0.9), dir_out=(0.7, -0.5, 0.3),
        numerics=Numerics(lmax=3, n_max=3, p_max=8.0, n_inner=16, n_mid=16)))


def test_pair_profile_matches_brute_force_quadrature(three_engine):
    # one call over two of the run's eps, out of order
    eng = three_engine
    eps_seq = (eng.sc.eps_sequence()[2], eng.sc.eps_sequence()[1])
    sc = eng.sc
    ang = _brute_force_rule(eng)
    n = len(sc.scatterers)
    # the right-hand factor depends on (h, eps) alone
    T = {(h, eps): _brute_force_factors(eng, ang, h, np.zeros(3), sc.dir_in, eps)
         for h in range(n) for eps in eps_seq}
    for j in range(n):
        for h in range(n):
            if j == h:
                continue
            D = sc.scatterers[j].center_array - sc.scatterers[h].center_array
            S, Sy = eng.pair_profile((j, h), eps_seq)
            assert S.shape == Sy.shape == (2, eng.grid.size)
            for eps, row in zip(eps_seq, S):
                ref = ang.weights @ (_brute_force_factors(eng, ang, j, D, sc.dir_out, eps)
                                     * T[h, eps])
                assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref)), (j, h, eps)


def test_born3_matches_brute_force_quadrature(three_engine):
    eng = three_engine
    n = len(eng.sc.scatterers)
    # every term over the three distinct centres, and every term with a D = 0 hop
    terms = [(j, h, k) for j in range(n) for h in range(n) for k in range(n)
             if j != h and h != k and (3 not in (j, h, k) or {0, 3} in ({j, h}, {h, k}))]
    assert any(j == k for j, _, k in terms) and any(j != k for j, _, k in terms)
    assert (0, 3, 1) in terms and (1, 0, 3) in terms
    eps = eng.sc.eps_sequence()[2]
    Yw = ylm_table(eng.sc.numerics.lmax, eng.ang.nodes) * eng.ang.weights
    for j, h, k in terms:
        ref = _born3_brute_force(eng, j, h, k, eps)
        assert abs(eng._born3(j, h, k, eps, Yw) - ref) <= 1e-12 * abs(ref), (j, h, k)


@pytest.fixture(scope="module")
def three_wells_engine():
    """Three wells in general position: three distinct separations, none on an axis."""
    pot = square_well(-1.0, 1.0)
    return ScenarioEngine(Scenario(
        scatterers=tuple(Scatterer(c, pot) for c in ((0.0, 0.0, 0.0), (0.0, 0.0, 5.0),
                                                     (3.0, 2.5, 1.0))),
        k0=1.0, dir_out=(0.8660254037844386, 0.0, 0.5),
        numerics=Numerics(lmax=2, n_max=3, p_max=8.0, n_inner=16, n_mid=16)))


def test_engine_holds_one_rayleigh_table_per_separation(three_wells_engine, monkeypatch):
    from multiscat import multiscatter

    eng = three_wells_engine
    lmax = eng.sc.numerics.lmax
    centers = [s.center_array for s in eng.sc.scatterers]
    seps = {float(np.linalg.norm(centers[j] - centers[h]))
            for j in range(3) for h in range(3) if j != h}
    assert len(seps) == 3 and set(eng.rayleigh) == seps
    coef = np.array([(1j) ** L * (2 * L + 1) for L in range(2 * lmax + 1)])
    for r, table in eng.rayleigh.items():
        assert np.array_equal(table, coef[:, None] * bessel_j_table(2 * lmax, eng.grid.nodes * r))
    # the series terms read the tables and build none
    def no_table(*args):
        raise AssertionError("a Rayleigh table built outside the constructor")

    monkeypatch.setattr(multiscatter, "bessel_j_table", no_table)
    eps = eng.sc.eps_sequence()[2]
    eng.pair_terms(eps)
    eng.born_term(3, eps)


def test_engine_holds_one_legendre_table_per_direction(three_wells_engine, monkeypatch):
    from multiscat import multiscatter

    eng = three_wells_engine
    lmax = eng.sc.numerics.lmax
    centers = [s.center_array for s in eng.sc.scatterers]
    axes = {tuple(D / np.linalg.norm(D)) for D in
            (centers[j] - centers[h] for j in range(3) for h in range(3) if j != h)}
    assert len(axes) == 6
    assert set(eng.legendre) == axes | {eng.sc.dir_in, eng.sc.dir_out}
    for u, table in eng.legendre.items():
        u_dot = eng.ang.nodes @ np.asarray(u)
        assert np.array_equal(table, legendre_table(2 * lmax, u_dot))
        # the rows a direction's P_l read are the order-lmax table bit for bit
        assert np.array_equal(table[:lmax + 1], legendre_table(lmax, u_dot))
    # the series terms from order 2 up slice the tables and build none
    def no_table(*args):
        raise AssertionError("a Legendre table built outside the constructor")

    monkeypatch.setattr(multiscatter, "legendre_table", no_table)
    eps = eng.sc.eps_sequence()[2]
    eng.pair_terms(eps)
    eng.born_term(3, eps)


def test_born3_matches_brute_force_quadrature_on_three_wells(three_wells_engine):
    eng = three_wells_engine
    terms = [(j, h, k) for j in range(3) for h in range(3) for k in range(3)
             if j != h and h != k]
    assert len(terms) == 12 and any(len({j, h, k}) == 3 for j, h, k in terms)
    eps = eng.sc.eps_sequence()[2]
    Yw = ylm_table(eng.sc.numerics.lmax, eng.ang.nodes) * eng.ang.weights
    for j, h, k in terms:
        ref = _born3_brute_force(eng, j, h, k, eps)
        assert abs(eng._born3(j, h, k, eps, Yw) - ref) <= 1e-12 * abs(ref), (j, h, k)


def test_projection_rows_do_not_depend_on_the_other_eps(three_engine):
    # one call over every eps of the run equals one call per eps, bit for bit
    eng = three_engine
    sc = eng.sc
    eps_seq = sc.eps_sequence()
    Yw = ylm_table(sc.numerics.lmax, eng.ang.nodes) * eng.ang.weights
    D = sc.scatterers[1].center_array - sc.scatterers[2].center_array
    together = eng._projection(Yw, 1, D, sc.dir_out, eps_seq)
    assert together.shape == (len(eps_seq), Yw.shape[0], eng.grid.size)
    for eps, block in zip(eps_seq, together):
        assert np.array_equal(block, eng._projection(Yw, 1, D, sc.dir_out, [eps])[0])
    S, Sy = eng.pair_profile((2, 1), eps_seq)
    for eps, row, row_y in zip(eps_seq, S, Sy):
        one, one_y = eng.pair_profile((2, 1), [eps])
        assert np.array_equal(row, one[0]) and np.array_equal(row_y, one_y[0])


def test_concentric_scatterers_give_finite_terms():
    def engine(sep):
        return ScenarioEngine(Scenario(
            scatterers=(Scatterer((0, 0, 0), gaussian(-1.0, 1.0)),
                        Scatterer((0, 0, sep), gaussian(-0.5, 0.8))),
            k0=1.0, dir_in=(0, 0, 1), dir_out=(0.6, 0, 0.8),
            numerics=Numerics(lmax=4, n_max=3)))

    same, near = engine(0.0), engine(1e-7)
    x_same, x_near = same.x_alpha(0.0, 0.05), near.x_alpha(0.0, 0.05)
    assert np.isfinite(x_same)
    assert abs(x_same - x_near) <= 1e-6 * abs(x_near)
    b_same, b_near = same.born_term(3, 0.05), near.born_term(3, 0.05)
    assert np.isfinite(b_same)
    assert abs(b_same - b_near) <= 1e-6 * abs(b_near)


def test_born_term_order_guard(wells_engine):
    with pytest.raises(ValueError):
        wells_engine.born_term(3, 0.05)    # n_max defaults to 2
    with pytest.raises(ValueError):
        wells_engine.born_term(0, 0.05)
    # the API takes any n_max; orders above 3 still have no term
    sc = replace(wells_engine.sc, numerics=replace(wells_engine.sc.numerics, n_max=4))
    with pytest.raises(ValueError, match="orders above 3"):
        ScenarioEngine(sc).born_term(4, 0.05)


def test_single_scatterer_report_degenerates():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),),
        k0=1.0, numerics=Numerics(lmax=3)))
    report = eng.verify()
    assert report.passed
    assert len(report.born_terms) == 1
    assert report.x0_structconst is None
    assert report.comparisons == []


def test_report_records_richardson_error_and_tail_ratio(overlap_engine):
    # the health numbers behind extrapolation and the tail check, per alpha
    # and per eps
    report = overlap_engine.verify()
    sc = overlap_engine.sc
    diag = report.diagnostics
    errors = diag["richardson_error"]
    assert set(errors) == set(sc.numerics.alpha_list)
    assert errors[0.0] == report.x0_direct_error
    for a, samples in report.x_alpha_by_eps.items():
        assert errors[a] == eps_extrapolate(samples)[1]
    assert set(diag["tail_ratio"]) == set(sc.eps_sequence())
    for eps, ratio in diag["tail_ratio"].items():
        assert ratio == overlap_engine.x_lattice(sc.numerics.alpha_list, [eps])[1][0]
        assert 0.0 < ratio < sc.numerics.tail_tol


def test_verify_report_json_roundtrip(overlap_engine):
    import json
    report = overlap_engine.verify()
    payload = report.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["alpha_flatness"] < 1e-2
    assert back["schatten"]["method"] == "grid"
    # complex values serialised as [re, im]
    assert isinstance(back["x0_direct"], list) and len(back["x0_direct"]) == 2
    # a non-finite number is JSON null
    assert _jsonify({"a": [float("nan"), -float("inf"), 1.5]}) == {"a": [None, None, 1.5]}


# ---------------------------------------------------------------------------
# LS health numbers
# ---------------------------------------------------------------------------

def _small_wells(eps_list=()):
    return ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
                    Scatterer((0, 0, 3.0), square_well(-2.8, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2, eps_list=eps_list, p_max=12.0,
                                  n_inner=16, n_mid=16)))


def test_ls_health_counts_bound_states_and_cross_checks():
    eng = _small_wells()
    health = eng.ls_health()
    shallow, deep = health["potentials"]
    # depth 2.8 binds one s-wave level (sqrt(2.8) > pi/2), depth 1 binds none
    assert shallow["bound_states"] == [0, 0, 0]
    assert deep["bound_states"] == [1, 0, 0]
    # the rank each l's solves ran in, as the LS stage holds it
    for p in health["potentials"]:
        ranks = list(eng.offshell(p["scatterer"]).rank)
        assert p["rank"] == ranks and all(0 < k <= eng.grid.size + 1 for k in ranks)
        assert eng.offshell(p["scatterer"]).B.shape[:2] == (3, max(ranks))
    assert health["cross_check"] < 1e-10
    assert health["solve_residual"] < 1e-12


def test_corrupted_spectral_column_trips_cross_check(monkeypatch):
    import dataclasses

    from multiscat import multiscatter

    original = multiscatter.ls_spectrum

    def corrupted(pot, lmax, grid, eps):
        # the spectrum forms its half-shell columns from the corrupted X
        sp = original(pot, lmax, grid, eps)
        return dataclasses.replace(sp, X=sp.X * (1.0 + 1e-6))

    monkeypatch.setattr(multiscatter, "ls_spectrum", corrupted)
    with pytest.raises(RuntimeError, match="cross-check"):
        _small_wells().ls_health()
    # no caller can hand a spectrum columns of its own
    sp = _small_wells().offshell(0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(sp, half=sp.half * (1.0 + 1e-6))


def test_rescaled_factors_trip_factor_cross_check():
    # Born-3 reads B and X; a spectrum rebuilt with a rescaled B forms its
    # half-shell columns from that B, bit for bit, so the LU cross-check
    # of those columns fails too: measured 2.0e-6 relative, against 1e-8
    import dataclasses

    from multiscat.lippmann import _half_shell

    eng = _small_wells()
    sp = eng.offshell(0)
    rescaled = dataclasses.replace(sp, B=sp.B * (1 + 1e-6))
    assert np.array_equal(rescaled.half, _half_shell(rescaled.B, sp.X))
    eng._spectra[eng.sc.scatterers[0].potential] = rescaled
    with pytest.raises(RuntimeError, match="LS cross-check"):
        eng.ls_health()


def test_stored_tables_are_read_only():
    # a table rescaled after it was built would still agree with itself in
    # every health check that reads it, so none can be rescaled in place,
    # in the spectrum the stage built or in one rebuilt from it
    import dataclasses

    eng = _small_wells()
    sp = eng.offshell(0)
    with pytest.raises(ValueError, match="read-only"):
        sp.B *= 1 + 1e-6
    with pytest.raises(ValueError, match="read-only"):
        eng.pv *= 2
    rebuilt = dataclasses.replace(sp, B=sp.B * 2, X=sp.X * 2)
    for table in (sp.X, sp.half, rebuilt.B, rebuilt.X, rebuilt.half, eng.c_l,
                  *eng.rayleigh.values(), *eng.legendre.values()):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
    # the momentum grid the tables were built on is not one of them
    assert eng.grid.nodes.flags.writeable and eng.grid.weights.flags.writeable


def test_extrapolation_flag(caplog):
    # the gap between the on-shell t_l extrapolated over eps and the eps = 0
    # solve, against the Richardson error, both relative to max_l |t_l|;
    # measured: the small wells at their default eps 5.8e-2 against 8.0e-3,
    # the bundled wells at half their default eps 3.9e-5 against 4.9e-6
    # (both flag), the bundled configs 1.2e-6 against 7.8e-6 and 8.6e-6
    with caplog.at_level("WARNING", logger="multiscat"):
        health = _small_wells().ls_health()
    assert health["extrapolation_flag"]
    assert health["extrapolation_gap"] > health["extrapolation_error"] > 0
    assert "Richardson error" in caplog.text
    for p in health["potentials"]:
        assert len(p["extrapolation_gap"]) == len(p["extrapolation_error"]) == 3
    assert health["extrapolation_gap"] == max(g for p in health["potentials"]
                                              for g in p["extrapolation_gap"])

    configs = Path(__file__).resolve().parent.parent / "configs"
    wells = validate_config((configs / "nonoverlap_wells.yaml").read_text()).scenario
    half = tuple(0.5 * e for e in wells.eps_sequence())
    halved = replace(wells, numerics=replace(wells.numerics, eps_list=half))
    assert ScenarioEngine(halved).ls_health()["extrapolation_flag"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="multiscat"):
        for name in ("nonoverlap_wells.yaml", "overlap_gaussians.yaml"):
            scenario = validate_config((configs / name).read_text()).scenario
            assert not ScenarioEngine(scenario).ls_health()["extrapolation_flag"], name
        # one s-wave bound state; the former level-spacing proxy flagged it
        deep = ScenarioEngine(Scenario(scatterers=(Scatterer((0, 0, 0), gaussian(-5.0, 1.0)),),
                                       k0=1.0)).ls_health()
        assert not deep["extrapolation_flag"]
        assert deep["potentials"][0]["bound_states"][:2] == [1, 0]
    assert "Richardson error" not in caplog.text


@pytest.mark.parametrize("depths, stages", [((-1.0, -2.8), 2), ((-1.0, -1.0), 1)],
                         ids=["distinct", "shared"])
def test_ls_stage_builds_one_rule_and_one_table_per_potential(monkeypatch, depths, stages):
    # every l of a potential is read from one radial rule and one Bessel
    # table, built inside offshell on first use, never in the constructor
    from multiscat import lippmann, multiscatter

    counts = {"stage": 0, "rule": 0, "table": 0}
    inside = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += bool(inside)
            return fn(*args, **kwargs)
        return wrapper

    stage = multiscatter.ls_spectrum

    def counted_stage(*args, **kwargs):
        counts["stage"] += 1
        inside.append(True)
        try:
            return stage(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(multiscatter, "ls_spectrum", counted_stage)
    monkeypatch.setattr(lippmann, "_radial_rule", counting("rule", lippmann._radial_rule))
    monkeypatch.setattr(lippmann, "bessel_j_table",
                        counting("table", lippmann.bessel_j_table))
    eng = ScenarioEngine(Scenario(
        scatterers=tuple(Scatterer((0, 0, z), square_well(v0, 1.0))
                         for z, v0 in zip((0.0, 3.0), depths)),
        k0=1.0, numerics=Numerics(lmax=2, p_max=12.0, n_inner=16, n_mid=16)))
    assert counts["stage"] == 0
    eng.verify()
    assert counts == {"stage": stages, "rule": stages, "table": stages}
    assert [len(eng.offshell(j).rank) for j in range(2)] == [3, 3]


def test_born2_identity_gate_fails_on_a_perturbed_lattice_entry(monkeypatch):
    eng = _small_wells()
    gate = {c["name"]: c for c in eng.verify().comparisons}["born2_identity"]
    assert gate["value"] == 0.0 and gate["passed"]

    original = ScenarioEngine.x_lattice

    def perturbed(self, alphas, eps_seq, pair=(0, 1)):
        rows, tails = original(self, alphas, eps_seq, pair)
        if len(alphas) > 1:       # the run's lattice, not x_alpha's one entry
            rows = rows.copy()
            rows[list(eps_seq).index(min(eps_seq)), list(alphas).index(0.0)] *= 1.0 + 1e-4
        return rows, tails

    monkeypatch.setattr(ScenarioEngine, "x_lattice", perturbed)
    report = eng.verify()
    gate = {c["name"]: c for c in report.comparisons}["born2_identity"]
    assert gate["value"] > gate["tolerance"] and not gate["passed"]
    assert not report.passed


def _scaled_sy(scale):
    """A planted defect: the standing-wave companion Sy of every pair profile times ``scale``."""
    def plant(monkeypatch):
        original = ScenarioEngine.pair_profile

        def planted(self, pair, eps_seq):
            S, Sy = original(self, pair, eps_seq)
            return S, scale * Sy

        monkeypatch.setattr(ScenarioEngine, "pair_profile", planted)
    return plant


def _onshell_t1_off_by_a_percent(monkeypatch):
    # the on-shell t_1 of the structure-constant route, which both wells share
    original = multiscatter.onshell_t_lm

    def planted(eta, k0):
        t = original(eta, k0)
        t[1] *= 1.01
        return t

    monkeypatch.setattr(multiscatter, "onshell_t_lm", planted)


def _born2_pair_term_off(monkeypatch):
    # X_0 of pair (0, 1) in born_term(2)'s pair terms, not in the lattice:
    # the lattice patch of the test above moves X_0, and so every other gate
    # (onshell_equivalence 9.3e-5 -> 3.2e-4)
    original = ScenarioEngine.pair_terms

    def planted(self, eps):
        terms = original(self, eps)
        terms[(0, 1)] *= 1.0 + 1e-4
        return terms

    monkeypatch.setattr(ScenarioEngine, "pair_terms", planted)


# (planted defect, the gates that guard it); measured on the bundled wells:
# unperturbed onshell_equivalence 9.27e-5, phase_law 1.30e-4, alpha_flatness
# 1.42e-4, y_average 6.29e-5 and born2_identity 0; Sy zeroed reads 1.5,
# 0.998 and 0.626 on its three gates, Sy negated 3.0, 1.99 and 1.25, t_1
# off by 1% 3.52e-3 and the pair term off by 1e-4 4.38e-5
PLANTED_DEFECTS = {
    "sy_zeroed": (_scaled_sy(0.0), {"phase_law", "alpha_flatness", "y_average"}),
    "sy_negated": (_scaled_sy(-1.0), {"phase_law", "alpha_flatness", "y_average"}),
    "onshell_t1": (_onshell_t1_off_by_a_percent, {"onshell_equivalence"}),
    "born2_pair_term": (_born2_pair_term_off, {"born2_identity"}),
}


def _bundled_wells_gates():
    scenario = validate_config(
        (Path(__file__).resolve().parent.parent / "configs" / "nonoverlap_wells.yaml")
        .read_text()).scenario
    return {c["name"]: c for c in ScenarioEngine(scenario).verify().comparisons}


@pytest.fixture(scope="module")
def bundled_wells_gates():
    return _bundled_wells_gates()


@pytest.mark.parametrize("defect", PLANTED_DEFECTS)
def test_each_gate_fails_on_its_planted_defect(defect, bundled_wells_gates, monkeypatch):
    # the gates a defect guards fail on it, every other gate keeps its
    # unperturbed value, and every gate the run emits has a planted defect
    clean = bundled_wells_gates
    assert all(c["passed"] for c in clean.values())
    assert set(clean) == set().union(*(fails for _, fails in PLANTED_DEFECTS.values()))
    plant, fails = PLANTED_DEFECTS[defect]
    plant(monkeypatch)
    gates = _bundled_wells_gates()
    assert set(gates) == set(clean)
    for name, gate in gates.items():
        if name in fails:
            assert gate["value"] > gate["tolerance"] and not gate["passed"], gate
        else:
            assert gate["passed"]
            assert abs(gate["value"] - clean[name]["value"]) <= 1e-12 * clean[name]["value"], gate


def test_run_computes_each_order_two_pair_term_once(monkeypatch):
    # born_term(2) and the born2_identity gate read one set of pair terms
    calls = []
    original = ScenarioEngine.x_alpha

    def counted(self, alpha, eps, pair=(0, 1)):
        calls.append((alpha, eps, tuple(pair)))
        return original(self, alpha, eps, pair)

    monkeypatch.setattr(ScenarioEngine, "x_alpha", counted)
    eng = _small_wells()
    report = eng.verify()
    eps_min = min(eng.sc.eps_sequence())
    assert calls == [(0.0, eps_min, (0, 1)), (0.0, eps_min, (1, 0))]
    assert report.born_terms[1] == sum(eng.pair_terms(eps_min).values())
    assert report.born2_identity_rel == 0.0


def test_n_max_one_has_no_order_two_term():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
                    Scatterer((0, 0, 3.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2, n_max=1, p_max=12.0, n_inner=16, n_mid=16)))
    report = eng.verify()
    assert len(report.born_terms) == 1 and report.born2_identity_rel is None
    assert "born2_identity" not in {c["name"] for c in report.comparisons}


@pytest.mark.parametrize("alphas", [(0.0,), (1.0,), (0.5, 0.5), (), (0.0, -2.0, -4.0, -6.0)])
def test_pair_run_rejects_alphas_that_cannot_fail(alphas):
    # one alpha makes alpha_flatness and y_average read 0 and drops phase_law;
    # the phase law holds for alpha >= 0 only (|e^{i alpha sqrt z}| <= 1)
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
                    Scatterer((0, 0, 3.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2, alpha_list=alphas, p_max=12.0,
                                  n_inner=16, n_mid=16)))
    with pytest.raises(ValueError, match="alpha"):
        eng.verify()
    assert alpha_list_problem(alphas) is not None
    assert alpha_list_problem((0.0, 0.5)) is None and alpha_list_problem((0.5, 1.0)) is None


def test_pair_run_with_a_zero_potential_names_the_vanishing_x0():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), square_well(-1.0, 1.0)),
                    Scatterer((0, 0, 3.0), square_well(0.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2, p_max=12.0, n_inner=16, n_mid=16)))
    with pytest.raises(ValueError, match="X_0 vanishes"):
        eng.verify()


def test_report_records_every_spectral_refinement_delta():
    from multiscat.greens import _SPECTRAL_DELTA_TARGET, schatten4_norm_spectral

    eng = _small_wells()
    schatten = eng.verify().schatten
    ks = schatten["decay_diagnostic"]["k_values"]
    assert schatten["method"] == "spectral" and len(ks) == 4
    assert schatten["refinement_deltas"][ks.index(eng.sc.k0)] == schatten["refinement_delta"]
    pots = tuple(s.potential for s in eng.sc.scatterers)
    norms = schatten4_norm_spectral(*pots, ks, 3.0)
    assert schatten["refinement_deltas"] == [d for _, d, _ in norms]
    assert max(schatten["refinement_deltas"]) <= _SPECTRAL_DELTA_TARGET
    # each k's final coarse truncation, in the same order, is the one the
    # stopping rule reaches for that k alone; it grows with k
    assert schatten["lmax"] == [lm for _, _, lm in norms]
    assert schatten["lmax"] == [spectral_schatten4_per_k(*pots, k, 3.0)[2] for k in ks]
    assert schatten["lmax"] == sorted(schatten["lmax"]) and len(schatten["lmax"]) == 4
