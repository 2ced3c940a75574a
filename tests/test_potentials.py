import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscat.potentials import (
    Potential,
    QuadratureError,
    Scatterer,
    exponential,
    gaussian,
    pair_gap,
    rollnik_check,
    square_well,
    truncated_coulomb,
)
from multiscat.lippmann import _radial_rule

from oracles import phi, rollnik_quad

ALL_KINDS = [
    square_well(-1.0, 1.0),
    gaussian(-1.0, 1.0),
    exponential(-1.0, 1.0),
    truncated_coulomb(-1.0, 1.0, 0.1),
]


def test_square_well_values():
    p = square_well(-1.0, 1.0)
    assert p.evaluate(0.5) == -1.0
    assert p.evaluate(2.0) == 0.0
    assert p.evaluate(1.0) == -1.0


def test_gaussian_value():
    p = gaussian(-1.0, 1.0)
    assert p.evaluate(1.0) == pytest.approx(-np.exp(-1.0))


def test_truncated_coulomb_cap():
    p = truncated_coulomb(-1.0, 1.0, 0.1)
    # capped below rc at the rc value
    assert p.evaluate(0.0) == pytest.approx(-10.0)
    assert p.evaluate(0.05) == pytest.approx(-10.0 * np.exp(-0.05))
    assert p.evaluate(0.5) == pytest.approx(-2.0 * np.exp(-0.5))
    # 1/r is never formed below rc: r = 0 and a subnormal r neither divide
    # by zero nor overflow
    with np.errstate(all="raise"):
        assert np.all(p.evaluate(np.array([0.0, 5e-324])) == -1.0 * (1.0 / 0.1))
        assert p.evaluate(5e-324) == -1.0 * (1.0 / 0.1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        Potential("bogus", -1.0, 1.0)
    with pytest.raises(ValueError):
        Potential("gaussian", -1.0, -2.0)
    with pytest.raises(ValueError):
        Potential("truncated_coulomb", -1.0, 1.0)   # missing rc
    with pytest.raises(ValueError, match="nonnegative"):
        gaussian(-1.0, 1.0).evaluate(np.array([0.5, -1e-3]))


def test_phi_branches():
    p = square_well(-1.0, 1.0)
    assert phi(p, 0.5) == pytest.approx(1j)
    assert phi(p, 3.0) == 0.0
    assert phi(square_well(4.0, 1.0), 0.2) == pytest.approx(2.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["square_well", "gaussian", "exponential",
                        "truncated_coulomb"]),
       st.floats(-5.0, 5.0), st.floats(0.2, 3.0), st.floats(0.0, 6.0))
def test_phi_squares_to_v(kind, v0, a, r):
    rc = 0.1 if kind == "truncated_coulomb" else None
    p = Potential(kind, v0, a, rc)
    assert phi(p, r) ** 2 == pytest.approx(p.evaluate(r), abs=1e-12)


def test_phi_squares_to_v_on_dense_grid():
    rs = np.linspace(0.0, 8.0, 2001)
    for p in ALL_KINDS:
        v = p.evaluate(rs)
        # exact up to the one-ulp sqrt/square roundtrip
        assert np.max(np.abs(phi(p, rs) ** 2 - v)) <= 4e-16 * max(np.max(np.abs(v)), 1.0)


@pytest.mark.parametrize("p", ALL_KINDS + [Potential(p.kind, -p.v0, p.a, p.rc) for p in ALL_KINDS],
                         ids=lambda p: f"{p.kind}{p.v0:+g}")
def test_every_kind_takes_only_the_sign_of_v0(p):
    # the LS stage writes V_l = sign(v0) B^T B: no kind may change sign on
    # the nodes of its radial rule
    c = _radial_rule(p, 40.0, 1)[1]
    assert set(np.sign(c)) <= {np.sign(p.v0), 0.0} and np.any(c != 0.0)


def test_attractive_kinds_monotone():
    rs = np.linspace(0.0, 6.0, 500)
    for p in (gaussian(-1.0, 1.0), exponential(-1.0, 1.0)):
        v = np.abs(p.evaluate(rs))
        assert np.all(np.diff(v) <= 1e-15)


def test_effective_radius():
    assert square_well(-1.0, 1.0).effective_radius() == 1.0
    g = gaussian(-1.0, 1.0)
    r = g.effective_radius()
    assert abs(g.evaluate(r)) == pytest.approx(1e-12, rel=1e-6)
    e = exponential(-2.0, 0.7)
    assert abs(e.evaluate(e.effective_radius())) == pytest.approx(1e-12, rel=1e-6)
    tc = truncated_coulomb(-1.0, 1.0, 0.1)
    assert abs(tc.evaluate(tc.effective_radius())) == pytest.approx(1e-12, rel=1e-3)


def test_rollnik_square_well_closed_forms():
    d = rollnik_check(square_well(-1.0, 1.0))
    assert d.admissible
    assert d.l1_norm == pytest.approx(4 * np.pi / 3, abs=1e-8)
    assert d.l2_norm == pytest.approx(np.sqrt(4 * np.pi / 3), abs=1e-8)


def test_rollnik_gaussian_closed_forms():
    # 3D integrals of e^{-r^2} and e^{-2 r^2}
    d = rollnik_check(gaussian(-1.0, 1.0))
    assert d.l1_norm == pytest.approx(np.pi ** 1.5, abs=1e-8)
    assert d.l2_norm == pytest.approx(np.sqrt((np.pi / 2) ** 1.5), abs=1e-8)


def test_rollnik_exponential_closed_forms():
    # integral of e^{-r/a} r^2 dr = 2 a^3
    d = rollnik_check(exponential(-1.0, 2.0))
    assert d.l1_norm == pytest.approx(4 * np.pi * 2 * 2.0 ** 3, rel=1e-9)


def test_rollnik_all_kinds_admissible():
    for p in ALL_KINDS:
        assert rollnik_check(p).admissible


def test_rollnik_coulomb_core_admissible():
    # |V|^2 ~ r^{-2} near the core stays integrable in 3D even for tiny rc
    d = rollnik_check(truncated_coulomb(-1.0, 1.0, 0.01))
    assert d.admissible
    assert np.isfinite(d.l1_norm) and np.isfinite(d.l2_norm)


@pytest.mark.parametrize("p", ALL_KINDS + [exponential(-2.0, 0.7),
                                       truncated_coulomb(-1.0, 1.0, 0.01)],
                         ids=lambda p: f"{p.kind}-{p.a}-{p.rc}")
def test_rollnik_panels_match_adaptive_quadrature(p):
    d = rollnik_check(p)
    l1, l2 = rollnik_quad(p)
    assert d.l1_norm == pytest.approx(l1, rel=1e-12)
    assert d.l2_norm == pytest.approx(l2, rel=1e-12)
    # the two-level error estimates are gated and recorded
    assert 0.0 <= d.l1_residual <= 1e-9 * d.l1_norm
    assert 0.0 <= d.l2_residual <= 1e-9 * d.l2_norm ** 2


@pytest.mark.parametrize("p", [square_well(-1.0, 1.0), truncated_coulomb(-1.0, 1.0, 0.1)],
                         ids=lambda p: p.kind)
def test_rollnik_gate_fails_on_a_panel_straddling_a_breakpoint(monkeypatch, p):
    if p.kind == "square_well":
        # at its own r_max = a the jump sits on the last panel's end; a
        # wider support puts it inside a panel, which the breakpoint splits
        monkeypatch.setattr(Potential, "effective_radius", lambda self: 1.5 * self.a)
        assert rollnik_check(p).l1_norm == pytest.approx(4 * np.pi / 3, rel=1e-12)
    monkeypatch.setattr(Potential, "breakpoints", lambda self: [])
    with pytest.raises(QuadratureError) as exc:
        rollnik_check(p)
    assert exc.value.residual > 1e-6


def test_pair_gap():
    s1 = Scatterer((0, 0, 0), square_well(-1.0, 1.0))
    s2 = Scatterer((0, 0, 5.0), square_well(-1.0, 1.0))
    assert pair_gap(s1, s2) == pytest.approx(3.0)
    s3 = Scatterer((0, 0, 1.0), gaussian(-1.0, 1.0))
    assert pair_gap(s1, s3) < 0
