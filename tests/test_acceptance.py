"""Acceptance suite: every criterion printed as its own pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion is also an ordinary assertion, so the plain test run enforces
all of them.
"""

import json

import numpy as np
import pytest
import yaml

from multiscat.cli import main as cli_main
from multiscat.greens import schatten4_norm_spectral, structure_constants
from multiscat.lippmann import ComplexEnergy, MomentumGrid, solve_offshell_t
from multiscat.multiscatter import Numerics, Scenario, ScenarioEngine, eps_extrapolate
from multiscat.potentials import (
    Scatterer,
    exponential,
    gaussian,
    square_well,
    truncated_coulomb,
)
from multiscat.radial import onshell_t_lm, phase_shift

from oracles import expansion_value
from test_radial import square_well_eta0_oracle


def _criterion(name, value, tol, extra=""):
    status = "PASS" if value < tol else "FAIL"
    print(f"[{status}] {name}: {value:.3e} (tolerance {tol:.1e}) {extra}")
    assert value < tol, f"{name}: {value:.3e} >= {tol:.1e}"


def _extrap_x(engine, alpha):
    eps_seq = engine.sc.eps_sequence()
    return eps_extrapolate({e: engine.x_alpha(alpha, e) for e in eps_seq})


def test_criterion_1_onshell_theorem(wells_engine):
    """Two wells V0=-1, a=1, R=5, k0=1, 60-degree geometry, lmax=8."""
    x0, _ = _extrap_x(wells_engine, 0.0)
    x0_sc = wells_engine.x0_structconst()[-1]
    rel = abs(x0 - x0_sc) / abs(x0_sc)
    _criterion("1 on-shell equivalence (non-overlapping)", rel, 1e-3)


def test_criterion_2_phase_law(wells_engine):
    x0, _ = _extrap_x(wells_engine, 0.0)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        xa, _ = _extrap_x(wells_engine, a)
        d = np.angle(xa / x0) - a * wells_engine.sc.k0
        worst = max(worst, abs((d + np.pi) % (2 * np.pi) - np.pi))
    _criterion("2 phase law arg(X_a/X_0) = a k0", worst, 1e-3)


def test_criterion_3_alpha_flatness_overlap(overlap_engine):
    ys = {}
    for a in np.arange(0.0, 2.25, 0.25):
        ys[a], _ = eps_extrapolate(
            {e: np.exp(-1j * a * overlap_engine.sc.k0) * overlap_engine.x_alpha(a, e)
             for e in overlap_engine.sc.eps_sequence()})
    flat = max(abs(ys[a] - ys[0.0]) for a in ys) / abs(ys[0.0])
    _criterion("3 alpha-flatness on shell (overlapping)", flat, 1e-2)


def test_criterion_4_offshell_onshell_consistency():
    pots = [square_well(-1.0, 1.0), gaussian(-1.0, 1.0),
            exponential(-1.0, 1.0), truncated_coulomb(-1.0, 1.0, 0.1)]
    worst = 0.0
    for pot in pots:
        for k0 in (0.5, 1.0, 2.0):
            grid = MomentumGrid.build(k0, max(45.0, 6 * k0), osc_scale=6.0)
            for l in range(5):
                t = solve_offshell_t(pot, l, ComplexEnergy(k0, 0.0), grid)[-1]
                mapped = (2 / np.pi) * onshell_t_lm(phase_shift(pot, l, k0), k0)
                worst = max(worst, abs(t - mapped) / abs(mapped))
    _criterion("4 LS vs radial on-shell consistency", worst, 1e-4)


@pytest.mark.parametrize("fixture, tol", [("wells_engine", 1e-5), ("overlap_engine", 1e-9)],
                         ids=["square_well", "gaussian"])
def test_criterion_4_eps0_factor_solve(request, fixture, tol):
    # the engine's own eps = 0 solve on its run grid against the phase
    # shifts, every l relative to max_l |t_l| (measured: 4.8e-6 at l = 0 on
    # the wells, 4.2e-10 on the Gaussians); kept out of the run, which
    # computes no phase shifts for overlapping supports
    eng = request.getfixturevalue(fixture)
    pot, k0, lmax = eng.sc.scatterers[0].potential, eng.sc.k0, eng.sc.numerics.lmax
    t0 = eng.offshell(0).on_shell(0.0)
    mapped = (2 / np.pi) * onshell_t_lm(phase_shift(pot, range(lmax + 1), k0), k0)
    _criterion(f"4 eps = 0 factor solve vs radial ({pot.kind})",
               np.max(np.abs(t0 - mapped)) / np.max(np.abs(mapped)), tol)


def test_criterion_5_unitarity():
    # exact identity from phase shifts
    worst_exact = 0.0
    for eta in np.linspace(-3.0, 3.0, 61):
        for k0 in (0.5, 1.0, 2.0):
            t = onshell_t_lm(eta, k0)
            worst_exact = max(worst_exact, abs(t.imag + k0 * abs(t) ** 2))
    _criterion("5a unitarity from phase shifts", worst_exact, 1e-12)

    # extrapolated LS on-shell element, mapped back to the t_lm convention
    pot = square_well(-1.0, 1.0)
    grid = MomentumGrid.build(1.0, 45.0, osc_scale=6.0)
    samples = {eps: solve_offshell_t(pot, 0, ComplexEnergy(1.0, eps), grid)[-1]
               for eps in (0.2, 0.1, 0.05, 0.025)}
    t_ls, _ = eps_extrapolate(samples)
    t_lm = (np.pi / 2) * t_ls
    _criterion("5b unitarity of extrapolated LS element",
               abs(t_lm.imag + abs(t_lm) ** 2), 1e-4)


def test_criterion_6_greens_expansion_identity():
    k0 = 1.0
    Rlen = 6.0
    R = np.array([0.0, 0.0, Rlen])
    g = structure_constants(k0, R, 20)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=3)
        x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x)
        v = rng.normal(size=3)
        v *= rng.uniform(0.05, 1.0) / np.linalg.norm(v)
        y = R + v
        r = np.linalg.norm(x - y)
        exact = -np.exp(1j * k0 * r) / (4 * np.pi * r)
        worst = max(worst, abs(expansion_value(g, k0, R, 20, x, y) - exact) / abs(exact))
    _criterion("6 Green's expansion identity (lmax=20)", worst, 1e-6)


def test_criterion_7_radial_oracles():
    eta = phase_shift(square_well(-1.0, 1.0), 0, 1.0)
    oracle = square_well_eta0_oracle(-1.0, 1.0, 1.0)
    _criterion("7a square-well eta0 vs transcendental", abs(eta - oracle), 1e-8)

    from scipy.special import spherical_jn, spherical_yn
    worst = 0.0
    for l in (0, 1, 2):
        # v0 = 1e14 keeps the residual wave penetration ~3e-7, below the
        # tolerance; the forbidden-region fast-forward makes the cost
        # independent of the barrier height
        hs = np.arctan(spherical_jn(l, 1.0) / spherical_yn(l, 1.0))
        got = phase_shift(square_well(1e14, 1.0), l, 1.0)
        worst = max(worst, abs(np.tan(got) - np.tan(hs)))
    _criterion("7b hard-sphere limit tan(eta_l) = j_l/y_l", worst, 1e-6)


def test_criterion_8_schatten_decay():
    pot = square_well(-1.0, 1.0)
    (v5, d5), (v50, d50) = schatten4_norm_spectral(pot, pot, [5.0, 50.0], 3.0)
    print(f"    ||K(25+i0)||_4 = {v5:.6f} (delta {d5:.1e}), "
          f"||K(2500+i0)||_4 = {v50:.6f} (delta {d50:.1e})")
    _criterion("8a Schatten refinement stability", max(d5, d50), 0.05)
    _criterion("8b Schatten decay direction", v50 / v5, 1.0)


def test_criterion_9_born_scaling():
    deg60 = np.deg2rad(60.0)

    def engine(lam):
        return ScenarioEngine(Scenario(
            scatterers=(Scatterer((0, 0, 0), square_well(-lam, 1.0)),
                        Scatterer((0, 0, 3.0), square_well(-lam, 1.0))),
            k0=1.0, dir_in=(0, 0, 1),
            dir_out=(np.sin(deg60), 0, np.cos(deg60)),
            numerics=Numerics(lmax=6, n_max=3)))

    e2 = engine(1e-2)
    e3 = engine(1e-3)
    worst = 0.0
    for n in (1, 2, 3):
        t2 = abs(e2.born_term(n, 0.05))
        t3 = abs(e3.born_term(n, 0.05))
        expo = np.log(t2 / t3) / np.log(10.0)
        print(f"    order {n}: fitted exponent {expo:.4f}")
        worst = max(worst, abs(expo - n))
    _criterion("9 Born-term lambda scaling", worst, 0.05)


@pytest.mark.parametrize("config_name", ["nonoverlap_wells.yaml",
                                         "overlap_gaussians.yaml"])
def test_criterion_10_determinism(config_name, tmp_path):
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "configs" / config_name
    raw = yaml.safe_load(src.read_text())
    raw["output"]["dir"] = str(tmp_path / "run")
    cfg = tmp_path / config_name
    cfg.write_text(yaml.safe_dump(raw))

    assert cli_main(["run", str(cfg)]) == 0
    first = (tmp_path / "run" / "summary.csv").read_bytes()
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["passed"] is True
    assert cli_main(["run", str(cfg)]) == 0
    second = (tmp_path / "run" / "summary.csv").read_bytes()
    identical = first == second
    print(f"[{'PASS' if identical else 'FAIL'}] 10 determinism ({config_name}): "
          f"byte-identical summary.csv = {identical}")
    assert identical
