import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from multiscat.greens import ComplexEnergy
from multiscat.lippmann import solve_offshell_t
from multiscat.multiscatter import (
    ExtrapolationError,
    Numerics,
    Scenario,
    ScenarioEngine,
    _spline_slopes,
    eps_extrapolate,
)
from multiscat.potentials import Scatterer, gaussian, square_well
from multiscat.specfun import AngularGrid, sph_index, ylm_table

from oracles import standing_companion


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


def test_x_alpha_zero_potential():
    eng = ScenarioEngine(Scenario(
        scatterers=(Scatterer((0, 0, 0), gaussian(0.0, 1.0)),
                    Scatterer((0, 0, 5.0), square_well(-1.0, 1.0))),
        k0=1.0, numerics=Numerics(lmax=2)))
    assert eng.x_alpha(0.0, 0.1) == 0.0


def test_x_lattice_rows_are_x_alpha(wells_engine):
    alphas = [0.0, 0.5, 1.5]
    lattice, tail = wells_engine.x_lattice(alphas, 0.1)
    assert [complex(v) for v in lattice] == [wells_engine.x_alpha(a, 0.1) for a in alphas]
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


def _brute_force_rule(eng):
    """Angular rule of degree ceil(p_max * max_sep) + 2*lmax + 30.

    High enough to integrate the full plane wave e^{i q k^.D}, with no
    expansion, at every grid momentum.
    """
    return AngularGrid.for_degree(int(np.ceil(eng.p_max * eng.max_sep))
                                  + 2 * eng.sc.numerics.lmax + 30)


def _direct_table(eng, s, l, eps):
    """t_l of scatterer s by the direct LU solve, independent of the engine's spectra."""
    return solve_offshell_t(eng.sc.scatterers[s].potential, l,
                            ComplexEnergy(eng.sc.k0, eps), eng.grid)


def _brute_force_factors(eng, ang, s, D, direction, eps):
    """e^{i q k^.D} T_s(k^, q) on (ang node, grid momentum), T_s the half-shell amplitude."""
    lmax = eng.sc.numerics.lmax
    cl = (2 * np.arange(lmax + 1) + 1) / (4.0 * np.pi)
    t = np.stack([_direct_table(eng, s, l, eps).half_shell()[:-1] for l in range(lmax + 1)])
    P = np.stack([eval_legendre(l, ang.nodes @ np.asarray(direction))
                  for l in range(lmax + 1)])
    wave = np.exp(1j * np.outer(ang.nodes @ D, eng.grid.nodes))
    return wave * np.einsum("l,la,li->ai", cl, P, t)


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
    """Two wells and a Gaussian off axis, lmax 3."""
    return ScenarioEngine(Scenario(
        scatterers=(Scatterer((0.3, -0.2, 0.1), square_well(-1.0, 1.0)),
                    Scatterer((2.0, 1.0, 2.5), gaussian(-0.8, 0.9)),
                    Scatterer((-1.5, 1.8, -1.2), square_well(-0.7, 1.2))),
        k0=1.1, dir_in=(0.2, 0.3, 0.9), dir_out=(0.7, -0.5, 0.3),
        numerics=Numerics(lmax=3, n_max=3, p_max=8.0, n_inner=16, n_mid=16)))


def test_pair_profile_matches_brute_force_quadrature(three_engine):
    eng, eps = three_engine, 0.05
    sc = eng.sc
    ang = _brute_force_rule(eng)
    for j in range(3):
        for h in range(3):
            if j == h:
                continue
            D = sc.scatterers[j].center_array - sc.scatterers[h].center_array
            T_h = _brute_force_factors(eng, ang, h, np.zeros(3), sc.dir_in, eps)
            ref = ang.weights @ (_brute_force_factors(eng, ang, j, D, sc.dir_out, eps) * T_h)
            S, _ = eng.pair_profile((j, h), eps)
            assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref)), (j, h)


def test_born3_matches_brute_force_quadrature(three_engine):
    eng = three_engine
    terms = [(j, h, k) for j in range(3) for h in range(3) for k in range(3)
             if j != h and h != k]
    assert any(j == k for j, _, k in terms) and any(j != k for j, _, k in terms)
    for j, h, k in terms:
        ref = _born3_brute_force(eng, j, h, k, 0.05)
        assert abs(eng._born3(j, h, k, 0.05) - ref) <= 1e-12 * abs(ref), (j, h, k)


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
        assert ratio == overlap_engine.x_lattice(sc.numerics.alpha_list, eps)[1]
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
    health = _small_wells().ls_health()
    shallow, deep = health["potentials"]
    # depth 2.8 binds one s-wave level (sqrt(2.8) > pi/2), depth 1 binds none
    assert shallow["bound_states"] == [0, 0, 0]
    assert deep["bound_states"] == [1, 0, 0]
    assert health["cross_check"] < 1e-10
    assert health["solve_residual"] < 1e-12


def test_corrupted_spectral_column_trips_cross_check(monkeypatch):
    import dataclasses

    from multiscat import multiscatter

    original = multiscatter.ls_spectrum

    def corrupted(pot, l, grid, eps):
        sp = original(pot, l, grid, eps)
        return dataclasses.replace(sp, B=sp.B * (1.0 + 1e-6))

    monkeypatch.setattr(multiscatter, "ls_spectrum", corrupted)
    with pytest.raises(RuntimeError, match="cross-check"):
        _small_wells().ls_health()


def test_spacing_flag(caplog):
    from pathlib import Path

    from multiscat.cli import validate_config

    spacing = _small_wells().ls_health()["level_spacing"]
    with caplog.at_level("WARNING", logger="multiscat"):
        health = _small_wells((2 * spacing, 1.5 * spacing, spacing)).ls_health()
    assert health["spacing_flag"] and health["eps_over_spacing"] <= 1.0
    assert "level spacing" in caplog.text
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("nonoverlap_wells.yaml", "overlap_gaussians.yaml"):
        scenario = validate_config((configs / name).read_text()).scenario
        assert not ScenarioEngine(scenario).ls_health()["spacing_flag"], name
