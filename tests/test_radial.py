import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from multiscat.potentials import (
    Potential,
    exponential,
    gaussian,
    square_well,
    truncated_coulomb,
)
from multiscat.radial import (
    StepControlError,
    _segment_maps,
    _segments,
    _w,
    onshell_t_lm,
    phase_shift,
)

from oracles import numerov_segment, phase_shift_scalar


def square_well_eta0_oracle(v0, a, k):
    """Independent bisection of K cot(K a) = k cot(k a + eta)."""
    K = np.sqrt(k * k - v0)
    lhs = K / np.tan(K * a)

    def f(eta):
        return lhs - k / np.tan(k * a + eta)

    # bracket a root of the matching condition within one branch
    for lo, hi in [(-1.5, 1.5), (-3.0, 3.0)]:
        grid = np.linspace(lo, hi, 4001)
        vals = np.array([f(e) for e in grid])
        sign = np.sign(vals)
        idx = np.where((np.diff(sign) != 0)
                       & (np.abs(np.diff(vals)) < 10.0))[0]
        if idx.size:
            eta = brentq(f, grid[idx[0]], grid[idx[0] + 1], xtol=1e-14)
            return (eta + np.pi / 2) % np.pi - np.pi / 2
    raise RuntimeError("no bracket found")


def test_free_particle():
    assert phase_shift(gaussian(0.0, 1.0), 0, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert phase_shift(gaussian(0.0, 1.0), 3, 0.7) == pytest.approx(0.0, abs=1e-9)


def test_square_well_s_wave_oracle():
    eta = phase_shift(square_well(-1.0, 1.0), 0, 1.0)
    assert eta == pytest.approx(square_well_eta0_oracle(-1.0, 1.0, 1.0), abs=1e-8)


@pytest.mark.parametrize("v0,k", [(-0.5, 0.7), (-2.0, 1.3), (1.5, 2.0)])
def test_square_well_s_wave_oracle_sweep(v0, k):
    eta = phase_shift(square_well(v0, 1.0), 0, k)
    assert eta == pytest.approx(square_well_eta0_oracle(v0, 1.0, k), abs=1e-8)


def square_well_eta_exact(v0, a, l, k):
    """eta_l of a square well from matching j_l(K r) inside to
    cos(eta) j_l(k r) - sin(eta) y_l(k r) outside, K = sqrt(k^2 - v0)."""
    K = np.sqrt(k * k - v0)
    jK, djK = spherical_jn(l, K * a), spherical_jn(l, K * a, derivative=True)
    num = k * spherical_jn(l, k * a, derivative=True) * jK - K * djK * spherical_jn(l, k * a)
    den = k * spherical_yn(l, k * a, derivative=True) * jK - K * djK * spherical_yn(l, k * a)
    return np.arctan(num / den)


@pytest.mark.parametrize("v0, a", [(-1.0, 1.0), (-5.0, 1.0), (-0.7, 1.3)])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 5.0])
def test_square_well_every_l_against_riccati_bessel_matching(v0, a, k):
    # l = 0..12 in one sweep; measured at worst 3.7e-8 (v0 = -1, a = 1,
    # k = 2, l = 2), 4.6e-9 on the bundled well at k = 1
    ls = np.arange(13)
    eta = phase_shift(square_well(v0, a), ls, k)
    err = (eta - square_well_eta_exact(v0, a, ls, k) + np.pi / 2) % np.pi - np.pi / 2
    assert np.max(np.abs(err)) <= 1e-7


@pytest.mark.parametrize("l", [0, 1, 2])
def test_hard_sphere_limit(l):
    # a 1e13 core keeps the wave out to ~3e-7 penetration depth
    eta = phase_shift(square_well(1e13, 1.0), l, 1.0)
    hs = np.arctan(spherical_jn(l, 1.0) / spherical_yn(l, 1.0))
    assert eta == pytest.approx(hs, abs=1e-6)


def test_matching_radius_independence():
    # the rc = 0.01 core puts three decades between rc and r_match at high
    # l, which only a plan split in octaves integrates under the step cap
    small_core = truncated_coulomb(-1.0, 1.0, 0.01)
    for pot, l in ((gaussian(-1.0, 1.0), 1), (truncated_coulomb(-1.0, 1.0, 0.1), 1),
                   (small_core, 3), (small_core, 8)):
        r_eff = pot.effective_radius()
        e1 = phase_shift(pot, l, 1.0)
        e2 = phase_shift(pot, l, 1.0, r_match=1.5 * r_eff)
        assert abs(e1 - e2) < 1e-8


def test_core_inside_series_start():
    # integration starts at r0 = 1e-5 here; the two cores differ only
    # inside r < 2e-5, which moves eta_0 by O(k (2e-5)^2) ~ 1e-10
    inner = phase_shift(truncated_coulomb(-1.0, 1.0, 1e-6), 0, 1.0)
    outer = phase_shift(truncated_coulomb(-1.0, 1.0, 2e-5), 0, 1.0)
    assert abs(inner - outer) < 1e-8


def test_numerov_segment_free_wave_is_fourth_order():
    # u'' = -k^2 u from (sin k r, k cos k r): the RK4 first step, the
    # summed Numerov recurrence and the 5-point end slope keep the phase of
    # (u, u'/k) at r_hi fourth order in h (the map carries a positive
    # factor, which the phase ignores)
    k, lo, hi = 1.3, 0.4, 2.9
    errs = []
    for n in (64, 128):
        F = _segment_maps(gaussian(0.0, 1.0), k, np.array([0]), np.array([lo]),
                          np.array([hi]), np.array([n]))[..., 0]
        u, up = F @ [np.sin(k * lo), k * np.cos(k * lo)]
        errs.append(abs(np.arctan2(u, up / k) - np.arctan2(np.sin(k * hi), np.cos(k * hi))))
    assert errs[1] < 1e-7
    assert 14 < errs[0] / errs[1] < 18


def test_segment_maps_at_the_chunk_edges():
    # step counts n give n - 4 chunked steps: 4, then exactly _CHUNK = 32
    # and 33, 64 and 65, and 96.  Each call sweeps one segment twice, the
    # counts in opposite orders, so that padded chunks sit side by side; the
    # segments are classically allowed, then forbidden.  Each map, applied to
    # three starts, points (u, u') where the summed recurrence run one value
    # at a time does
    ns = [8, 35, 36, 37, 68, 69, 100]
    worst = 0.0
    for pot, l, k, lo, hi in [(square_well(-1.0, 1.0), 2, 1.0, 0.3, 0.9),
                              (exponential(-2.0, 0.7), 5, 0.5, 0.05, 0.6)]:
        for counts in zip(ns, ns[::-1]):
            F = _segment_maps(pot, k, np.array([l, l]), np.array([lo, lo]), np.array([hi, hi]),
                              np.array(counts))
            for i, n in enumerate(counts):
                for start in [(1.0, 0.0), (0.0, 1.0), (0.7, -2.3)]:
                    got = F[..., i] @ start
                    ref = numerov_segment(lambda r: _w(pot, l, k, r, lo, hi), lo, hi, *start, n,
                                          summed=True)
                    worst = max(worst, abs(got[0] * ref[1] - got[1] * ref[0])
                                / (np.hypot(*got) * np.hypot(*ref)))
    assert worst <= 1e-13


# one potential per kind; the Coulomb core puts three decades between rc
# and r_match
SWEEP_POTENTIALS = [square_well(-1.0, 1.0), gaussian(-1.0, 1.0), exponential(-2.0, 0.7),
                    truncated_coulomb(-1.0, 1.0, 0.01)]


def _r_match(pot, k):
    r_eff = pot.effective_radius()
    return max(1.05 * r_eff, r_eff + 0.5 / k, 1.0 / k)


@pytest.mark.parametrize("pot", SWEEP_POTENTIALS, ids=lambda p: p.kind)
def test_sweep_matches_scalar_integration(pot):
    # the sweep against the same plan integrated one lattice value at a
    # time; l >= 4 at k = 1 starts from the WKB tail of the barrier.  At
    # k = 40 the two long-range kinds (r_match ~ 21 and 26) take l = 0, 6
    # and 12 only: their scalar reference costs ~0.3 s per l there
    plans, _ = _segments(pot, np.arange(13), 1.0, _r_match(pot, 1.0))
    assert not plans[0][1] and all(wkb for _, wkb in plans[4:])
    long_range = pot.kind in ("exponential", "truncated_coulomb")
    for k, ls in [(0.1, range(13)), (0.5, range(13)), (1.0, range(13)), (2.0, range(13)),
                  (5.0, range(13)), (40.0, (0, 6, 12) if long_range else range(13))]:
        etas = phase_shift(pot, ls, k)
        ref = [phase_shift_scalar(pot, l, k, summed=True) for l in ls]
        assert np.max(np.abs(etas - ref)) <= 1e-10, k


@pytest.mark.parametrize("pot", SWEEP_POTENTIALS, ids=lambda p: p.kind)
def test_sweep_matches_classical_recurrence(pot):
    # the classical three-term recurrence rounds worse where adjacent
    # lattice values nearly agree (at k = 40 it drifts by up to 7e-10 from
    # an extended-precision run); at k = 1 the two forms agree
    etas = phase_shift(pot, range(13), 1.0)
    ref = [phase_shift_scalar(pot, l, 1.0) for l in range(13)]
    assert np.max(np.abs(etas - ref)) <= 1e-10


def test_phase_shift_of_a_sequence_is_per_l_calls(monkeypatch):
    from multiscat import radial

    for pot, k in ((square_well(-1.0, 1.0), 1.0), (truncated_coulomb(-1.0, 1.0, 0.01), 5.0),
                   (gaussian(0.0, 1.0), 0.1)):
        ls = [5, 0, 12, 3, 3, 1]
        etas = phase_shift(pot, ls, k)
        assert isinstance(etas, np.ndarray) and etas.shape == (len(ls),)
        single = [phase_shift(pot, l, k) for l in ls]
        assert all(isinstance(e, float) for e in single)
        assert etas.tolist() == single
        # a lattice swept in several calls gives the same values, also when
        # every segment is larger than the cap (50 and 1)
        for cap in (3000, 50, 1):
            with monkeypatch.context() as m:
                m.setattr(radial, "_SWEEP_NODES", cap)
                assert phase_shift(pot, ls, k).tolist() == single, cap
    assert phase_shift(square_well(-1.0, 1.0), [], 1.0).shape == (0,)
    with pytest.raises(ValueError):
        phase_shift(square_well(-1.0, 1.0), [0, -1], 1.0)


def test_non_finite_potential_is_a_step_control_error(monkeypatch):
    pot = square_well(-1.0, 1.0)
    monkeypatch.setattr(Potential, "evaluate", lambda self, r: np.full(np.shape(r), np.nan))
    with pytest.raises(StepControlError):
        phase_shift(pot, 0, 1.0)
    # past the step-size probes, the sweep's own check
    with pytest.raises(StepControlError):
        _segment_maps(pot, 1.0, np.array([0]), np.array([0.5]), np.array([1.0]),
                      np.array([40]))


def test_step_control_refuses_huge_lattices():
    # |w| ~ 1e12: h ~ 1e-8 on the well's outer octave
    with pytest.raises(StepControlError, match="refusing"):
        phase_shift(square_well(-1e12, 1.0), 0, 1.0)


def test_r_match_inside_support_is_config_error():
    with pytest.raises(ValueError):
        phase_shift(square_well(-1.0, 1.0), 0, 1.0, r_match=0.5)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        phase_shift(square_well(-1.0, 1.0), 0, -1.0)
    with pytest.raises(ValueError):
        onshell_t_lm(0.3, 0.0)


def test_onshell_t_lm_values():
    assert onshell_t_lm(0.0, 2.0) == 0.0
    assert onshell_t_lm(np.pi / 2, 1.0) == pytest.approx(-1j)
    assert onshell_t_lm(0.3, 2.0) == pytest.approx(
        -np.sin(0.3) * np.exp(0.3j) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(0.01, 50.0))
def test_onshell_unitarity_identity(eta, k0):
    t = onshell_t_lm(eta, k0)
    assert abs(t.imag + k0 * abs(t) ** 2) < 1e-12


def continuous_branch(pot, l, ks):
    """eta_l at increasing ks, unwrapped by multiples of pi into a branch
    continuous in k and anchored at the largest k, where eta -> 0."""
    raw = [phase_shift(pot, l, k) for k in ks]
    etas = [raw[-1]]
    for val in raw[-2::-1]:
        etas.append(val + np.pi * np.round((etas[-1] - val) / np.pi))
    return np.array(etas[::-1])


def test_levinson_style_threshold():
    # first s-wave bound state appears at |v0| = (pi/2)^2 ~ 2.467; crossing
    # it pushes eta0(k -> 0+) up by ~pi on the continuous branch
    ks = np.geomspace(0.01, 12.0, 140)
    shallow = continuous_branch(square_well(-2.2, 1.0), 0, ks)
    deep = continuous_branch(square_well(-2.8, 1.0), 0, ks)
    jump = deep[0] - shallow[0]
    assert jump == pytest.approx(np.pi, abs=0.3)


def test_branch_continuity_in_k():
    ks = np.geomspace(0.05, 10.0, 80)
    for l in (0, 1):
        etas = continuous_branch(square_well(-2.8, 1.0), l, ks)
        assert np.max(np.abs(np.diff(etas))) < 1.0     # no pi-jumps
        assert abs(etas[-1]) < 0.2                     # anchored at large k


def test_eta_vanishes_at_large_k():
    assert abs(phase_shift(square_well(-1.0, 1.0), 0, 40.0)) < 0.02
