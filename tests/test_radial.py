import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from multiscat.potentials import gaussian, square_well, truncated_coulomb
from multiscat.radial import onshell_t_lm, phase_shift


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


@pytest.mark.parametrize("l", [0, 1, 2])
def test_hard_sphere_limit(l):
    # a 1e13 core keeps the wave out to ~3e-7 penetration depth
    eta = phase_shift(square_well(1e13, 1.0), l, 1.0)
    hs = np.arctan(spherical_jn(l, 1.0) / spherical_yn(l, 1.0))
    assert eta == pytest.approx(hs, abs=1e-6)


def test_matching_radius_independence():
    for pot in (gaussian(-1.0, 1.0), truncated_coulomb(-1.0, 1.0, 0.1)):
        r_eff = pot.effective_radius()
        e1 = phase_shift(pot, 1, 1.0)
        e2 = phase_shift(pot, 1, 1.0, r_match=1.5 * r_eff)
        assert abs(e1 - e2) < 1e-8


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
