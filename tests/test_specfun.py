import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscat.specfun import (
    AngularGrid,
    bessel_j,
    bessel_j_prime,
    bessel_y,
    bessel_y_prime,
    hankel_plus,
    sph_index,
    ylm_table,
)

from oracles import gaunt, wigner3j, ylm


# ---------------------------------------------------------------------------
# spherical Bessel family
# ---------------------------------------------------------------------------

def test_bessel_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


def test_bessel_j0_at_pi():
    assert abs(bessel_j(0, np.pi)) < 1e-15


def test_bessel_j1_closed_form():
    # j1(x) = sin x / x^2 - cos x / x
    x = 1.0
    assert bessel_j(1, x) == pytest.approx(np.sin(x) / x**2 - np.cos(x) / x,
                                           abs=1e-14)


def test_hankel_plus_modulus():
    for x in (0.3, 1.0, 7.7, 40.0):
        assert abs(hankel_plus(0, x)) == pytest.approx(1.0 / x, rel=1e-12)


def test_hankel_plus_closed_form():
    x = np.pi / 2
    assert hankel_plus(0, x) == pytest.approx(-1j * np.exp(1j * x) / x, abs=1e-14)


def test_hankel_plus_components():
    assert hankel_plus(1, 10.0) == pytest.approx(
        bessel_j(1, 10.0) + 1j * bessel_y(1, 10.0))


def test_singular_argument_errors():
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        hankel_plus(2, 0.0)
    with pytest.raises(ValueError):
        bessel_j(1, -0.5)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        bessel_y(200, 1e-8)


def test_wronskian():
    # j_l y_l' - j_l' y_l = 1/x^2
    xs = np.linspace(0.1, 100.0, 57)
    for l in range(21):
        w = (bessel_j(l, xs) * bessel_y_prime(l, xs)
             - bessel_j_prime(l, xs) * bessel_y(l, xs))
        assert np.max(np.abs(w - 1.0 / xs**2)) < 1e-10


def test_recurrence_consistency():
    xs = np.linspace(0.2, 60.0, 41)
    for l in range(1, 20):
        for f in (bessel_j, bessel_y):
            lhs = f(l - 1, xs) + f(l + 1, xs)
            rhs = (2 * l + 1) / xs * f(l, xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs) + 1)


# ---------------------------------------------------------------------------
# spherical harmonics and angular grids
# ---------------------------------------------------------------------------

def test_ylm_simple_values():
    assert ylm(0, 0, [0.3, -0.2, 0.9]) == pytest.approx(1 / np.sqrt(4 * np.pi))
    assert ylm(1, 0, [0, 0, 1]) == pytest.approx(np.sqrt(3 / (4 * np.pi)))
    assert ylm(1, 1, [1, 0, 0]) == pytest.approx(-np.sqrt(3 / (8 * np.pi)))


def test_ylm_domain_error():
    with pytest.raises(ValueError):
        ylm(1, 2, [0, 0, 1])


def test_ylm_conjugation():
    d = np.array([0.4, 0.5, 0.3])
    for l in range(5):
        for m in range(l + 1):
            assert ylm(l, -m, d) == pytest.approx(
                (-1) ** m * np.conj(ylm(l, m, d)), abs=1e-14)


def test_angular_grid_weights_sum():
    for lmax in (2, 8, 20):
        g = AngularGrid.for_degree(2 * lmax)
        assert abs(g.weights.sum() - 4 * np.pi) < 1e-12
        assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("lmax", [4, 12])
def test_angular_grid_orthonormality(lmax):
    g = AngularGrid.for_degree(2 * lmax)
    tab = ylm_table(lmax, g.nodes)
    gram = (tab * g.weights) @ tab.conj().T
    n = (lmax + 1) ** 2
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_ylm_high_l_normalisation():
    # single high-l rows stay normalised (recurrence stability)
    g = AngularGrid.for_degree(2 * 96)
    tab = ylm_table(96, g.nodes)
    for lm in (sph_index(96, 0), sph_index(96, 50), sph_index(96, -96)):
        norm = np.dot(g.weights, np.abs(tab[lm]) ** 2)
        assert norm == pytest.approx(1.0, rel=1e-11)


def test_y11_quadrature_normalisation():
    g = AngularGrid.for_degree(2)
    vals = np.array([ylm(1, 1, n) for n in g.nodes])
    assert np.dot(g.weights, np.abs(vals) ** 2) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Wigner 3j and Gaunt oracles (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_wigner3j_known_values():
    assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(np.sqrt(2 / 15))
    assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / np.sqrt(3))
    assert wigner3j(2, 1, 1, 0, 0, 0) == pytest.approx(np.sqrt(2 / 15))
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0          # parity
    assert wigner3j(5, 1, 2, 0, 0, 0) == 0.0          # triangle


def test_wigner3j_vs_sympy():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    rng = np.random.default_rng(3)
    for _ in range(40):
        l1, l2 = (int(x) for x in rng.integers(0, 9, 2))
        l3 = int(rng.integers(abs(l1 - l2), l1 + l2 + 1))
        m1 = int(rng.integers(-l1, l1 + 1)) if l1 else 0
        m2 = int(rng.integers(-l2, l2 + 1)) if l2 else 0
        m3 = -(m1 + m2)
        if abs(m3) > l3:
            continue
        ref = float(sympy_wigner.wigner_3j(l1, l2, l3, m1, m2, m3))
        assert wigner3j(l1, l2, l3, m1, m2, m3) == pytest.approx(ref, abs=1e-13)


def test_gaunt_s_wave():
    assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(1 / np.sqrt(4 * np.pi))


def test_gaunt_selection_rules_exact_zero():
    assert gaunt(1, 0, 1, 0, 1, 0) == 0.0      # parity
    assert gaunt(1, 1, 1, -1, 2, 1) == 0.0     # m3 != m1 + m2
    assert gaunt(3, 0, 1, 0, 0, 0) == 0.0      # triangle


def test_gaunt_domain_error():
    with pytest.raises(ValueError):
        gaunt(1, 2, 1, 0, 2, 2)


def _gaunt_quadrature_oracle(l1, m1, l2, m2, l3, m3):
    """Independent oracle: direct angular quadrature of the Y-product."""
    g = AngularGrid.for_degree(l1 + l2 + l3 + 2)
    lmax = max(l1, l2, l3)
    tab = ylm_table(lmax, g.nodes)
    integrand = (tab[sph_index(l1, m1)] * tab[sph_index(l2, m2)]
                 * np.conj(tab[sph_index(l3, m3)]))
    return np.dot(g.weights, integrand)


def test_gaunt_against_quadrature_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        l1, l2 = (int(x) for x in rng.integers(0, 11, 2))
        l3 = int(rng.integers(abs(l1 - l2), l1 + l2 + 1))
        m1 = int(rng.integers(-l1, l1 + 1)) if l1 else 0
        m2 = int(rng.integers(-l2, l2 + 1)) if l2 else 0
        m3 = m1 + m2
        if abs(m3) > l3:
            continue
        oracle = _gaunt_quadrature_oracle(l1, m1, l2, m2, l3, m3)
        assert abs(oracle.imag) < 1e-12
        assert gaunt(l1, m1, l2, m2, l3, m3) == pytest.approx(oracle.real,
                                                              abs=1e-11)
        checked += 1


def test_gaunt_example_from_quadrature():
    got = gaunt(1, 1, 1, -1, 0, 0)
    oracle = _gaunt_quadrature_oracle(1, 1, 1, -1, 0, 0)
    assert got == pytest.approx(oracle.real, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 16),
       st.data())
def test_gaunt_exchange_symmetry_exact(l1, l2, l3, data):
    m1 = data.draw(st.integers(-l1, l1))
    m2 = data.draw(st.integers(-l2, l2))
    m3 = m1 + m2
    if abs(m3) > l3:
        return
    # exchange of the two input harmonics is exact as computed
    assert gaunt(l1, m1, l2, m2, l3, m3) == gaunt(l2, m2, l1, m1, l3, m3)
