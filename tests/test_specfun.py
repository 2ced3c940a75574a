import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from multiscat import specfun
from multiscat.specfun import (
    AngularGrid,
    bessel_derivative,
    bessel_j_table,
    bessel_y_table,
    gauss_legendre,
    legendre_table,
    plm_norm_table,
    sin_cos,
    sph_index,
    ylm_table,
)

from oracles import (
    gauss_legendre_weights_mp,
    gaunt,
    plm_norm_table_loop,
    wigner3j,
    ylm,
    ylm_table_loop,
)


# ---------------------------------------------------------------------------
# spherical Bessel family
# ---------------------------------------------------------------------------

def test_sin_cos_matches_numpy():
    # random x on [0, 1e6], and the multiples k pi/2 with their
    # floating-point neighbours, where sin or cos passes through 0 or +-1
    x = np.random.default_rng(11).uniform(0.0, 1e6, 200_000)
    k = np.arange(-4000, 4001) * (0.5 * np.pi)
    edges = np.concatenate([k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf)])
    for xs in (x, edges, x.reshape(400, 500)):
        sin, cos = sin_cos(xs)
        assert sin.shape == cos.shape == xs.shape
        assert np.max(np.abs(sin - np.sin(xs))) <= 2.3e-16
        assert np.max(np.abs(cos - np.cos(xs))) <= 2.3e-16
    assert sin_cos(0.0) == (0.0, 1.0)
    for xs in (2.5, -1.0e5, 3):
        sin, cos = sin_cos(xs)
        assert np.ndim(sin) == np.ndim(cos) == 0
        assert abs(sin - np.sin(xs)) <= 2.3e-16 and abs(cos - np.cos(xs)) <= 2.3e-16
    # the out= path writes both into (strided) views and gives the same bits
    buf = np.empty((x.size, 2))
    sin, cos = sin_cos(x, out=(buf[:, 0], buf[:, 1]))
    assert np.shares_memory(sin, buf) and np.shares_memory(cos, buf)
    np.testing.assert_array_equal(buf, np.stack(sin_cos(x), axis=-1))


def _hankel_plus(L, x):
    """h+_0..h+_L = j + i y from the two tables."""
    return bessel_j_table(L, x) + 1j * bessel_y_table(L, x)


def test_bessel_j_at_zero():
    assert np.array_equal(bessel_j_table(3, 0.0), [1.0, 0.0, 0.0, 0.0])
    assert bessel_j_table(0, 0.0)[0] == 1.0
    assert bessel_j_table(3, 0.0)[3] == 0.0
    tab = bessel_j_table(5, np.array([0.0, 0.5, 0.0]))
    assert np.array_equal(tab[:, 0], np.eye(6)[0]) and np.array_equal(tab[:, 2], tab[:, 0])


def test_bessel_j0_at_pi():
    # the normalisation falls on j_1 where j_0 vanishes
    for L in (0, 1, 5, 40):
        assert abs(bessel_j_table(L, np.pi)[0]) < 1e-15


def test_bessel_j1_closed_form():
    # j1(x) = sin x / x^2 - cos x / x
    for L in (1, 2, 30):
        for x in (1.0, 0.3, 7.5):
            assert bessel_j_table(L, x)[1] == pytest.approx(
                np.sin(x) / x**2 - np.cos(x) / x, abs=1e-14)


def test_hankel_plus_modulus():
    for x in (0.3, 1.0, 7.7, 40.0):
        assert abs(_hankel_plus(3, x)[0]) == pytest.approx(1.0 / x, rel=1e-12)


def test_hankel_plus_closed_form():
    x = np.pi / 2
    assert _hankel_plus(2, x)[0] == pytest.approx(-1j * np.exp(1j * x) / x, abs=1e-14)


def test_hankel_plus_components():
    # |h+_1(x)|^2 = (1 + 1/x^2) / x^2 ties the j and y rows of order 1 together
    for x in (0.4, 2.0, 10.0, 55.0):
        h1 = _hankel_plus(6, x)[1]
        assert abs(h1) ** 2 == pytest.approx((1.0 + 1.0 / x**2) / x**2, rel=1e-12)


def test_singular_argument_errors():
    with pytest.raises(ValueError):
        bessel_y_table(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y_table(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        bessel_j_table(1, -0.5)
    with pytest.raises(ValueError):
        bessel_j_table(4, np.array([[0.5, 1.0], [-0.5, 2.0]]))
    with pytest.raises(ValueError):
        bessel_derivative(bessel_j_table(2, 1.0), 0.0)
    with pytest.raises(ValueError):
        bessel_j_table(221, 1.0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        bessel_j_table(1.5, 1.0)
    with pytest.raises(ValueError, match="orders 0 and 1"):
        bessel_derivative(bessel_j_table(0, 1.0), 1.0)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        bessel_y_table(200, 1e-8)
    with pytest.raises(OverflowError):
        bessel_j_table(3, np.array([1.0, np.inf]))


def test_wronskian():
    # j_l y_l' - j_l' y_l = 1/x^2
    xs = np.linspace(0.1, 100.0, 57)
    J, Y = bessel_j_table(20, xs), bessel_y_table(20, xs)
    w = J * bessel_derivative(Y, xs) - bessel_derivative(J, xs) * Y
    assert np.max(np.abs(w - 1.0 / xs**2)) < 1e-10


def test_recurrence_consistency():
    xs = np.linspace(0.2, 60.0, 41)
    l = np.arange(1, 20)[:, None]
    for f in (bessel_j_table, bessel_y_table):
        tab = f(20, xs)
        lhs = tab[:-2] + tab[2:]
        rhs = (2 * l + 1) / xs * tab[1:-1]
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs) + 1)


def _j_reference(L, xs):
    """j_0..j_L: the power series where x^2 <= 2l + 3, scipy elsewhere.

    scipy flushes j_l(x) to zero below about 1e-300, where the true value
    is still a normal double.  The series x^l/(2l+1)!! sum_k (-x^2/2)^k /
    (k! (2l+3)...(2l+2k+1)) has terms falling by at least 2(k+1) a step
    there, so 25 of them reach double precision.
    """
    l = np.arange(L + 1)[:, None]
    ref = spherical_jn(l, xs[None, :])
    lead = np.empty((L + 1, xs.size))
    lead[0] = 1.0
    for k in range(1, L + 1):
        lead[k] = lead[k - 1] * xs / (2 * k + 1)
    term, total = np.ones_like(lead), np.ones_like(lead)
    for k in range(1, 26):
        term = term * (-0.5 * xs * xs) / (k * (2 * l + 2 * k + 1))
        total += term
    series = xs[None, :] ** 2 <= 2 * l + 3
    return np.where(series, lead * total, ref)


def _assert_table_close(got, ref, xs):
    """1e-12 relative where x < 0.8 l, |f - ref| <= 1e-14 max(1, |ref|) elsewhere."""
    l = np.arange(ref.shape[0])[:, None]
    inner = xs[None, :] < 0.8 * l
    tol = np.where(inner, 1e-12 * np.abs(ref), 1e-14 * np.maximum(1.0, np.abs(ref)))
    # below the normal range a relative bound has no meaning
    tol = np.maximum(tol, np.finfo(float).tiny)
    bad = np.argwhere(np.abs(got - ref) > tol)
    assert bad.size == 0, [(int(i), float(xs[k]), got[i, k], ref[i, k]) for i, k in bad[:5]]


_XS_16 = np.unique(np.concatenate([[0.0], np.logspace(-8, 0, 41),
                                   np.linspace(1e-3, 250.0, 2501)]))
_XS_216 = np.unique(np.concatenate([np.logspace(-8, np.log10(60.0), 161),
                                    np.linspace(0.05, 60.0, 800)]))


@pytest.mark.parametrize("L", range(17))
def test_bessel_tables_match_scipy_low_orders(L):
    # the plane-wave range: x up to 250, every order up to 16
    _assert_table_close(bessel_j_table(L, _XS_16), _j_reference(L, _XS_16), _XS_16)
    xs = _XS_16[1:]
    _assert_table_close(bessel_y_table(L, xs),
                        spherical_yn(np.arange(L + 1)[:, None], xs[None, :]), xs)


@pytest.mark.parametrize("L", [17, 25, 50, 100, 150, 216])
def test_bessel_tables_match_scipy_high_orders(L):
    xs = _XS_216
    J = bessel_j_table(L, xs)
    _assert_table_close(J, _j_reference(L, xs), xs)
    # a lower-order table starts its recurrence lower and agrees to rounding
    for low in (0, L // 2, L - 1):
        _assert_table_close(bessel_j_table(low, xs), J[:low + 1], xs)
    ref_y = spherical_yn(np.arange(L + 1)[:, None], xs[None, :])
    finite = np.all(np.isfinite(ref_y), axis=0)
    _assert_table_close(bessel_y_table(L, xs[finite]), ref_y[:, finite], xs[finite])
    if not np.all(finite):
        with pytest.raises(OverflowError):
            bessel_y_table(L, xs[~finite][-1:])


def test_bessel_j_table_shapes():
    assert bessel_j_table(4, 2.5).shape == (5,)
    grid = np.outer(np.linspace(0.0, 3.0, 7), np.linspace(0.1, 40.0, 11))
    got = bessel_j_table(6, grid)
    assert got.shape == (7,) + grid.shape
    # each argument's column does not depend on the array it sits in
    _assert_table_close(got[:, 2], bessel_j_table(6, grid[2]), grid[2])


def test_legendre_table_matches_scipy():
    u = np.concatenate([np.linspace(-1.0, 1.0, 401), [-1.0, 0.0, 1.0, 1e-9]])
    l = np.arange(41)[:, None]
    P = legendre_table(40, u)
    # scipy's own error reaches 1.7e-14 here; Bonnet's stays near 1.5e-15
    assert np.max(np.abs(P - eval_legendre(l, u[None, :]))) < 5e-14
    sub = u[::20]
    with mpmath.workdps(40):
        exact = np.array([[float(mpmath.legendre(k, mpmath.mpf(float(x)))) for x in sub]
                          for k in range(41)])
    assert np.max(np.abs(P[:, ::20] - exact)) < 4e-15
    assert np.array_equal(P[:, -2], np.ones(41))
    assert legendre_table(3, 0.5).shape == (4,)


@pytest.mark.parametrize("n", [1, 2, 3, 22, 64, 116, 288, 640])
def test_gauss_legendre_nodes_match_leggauss(n):
    # numpy's eigensolve is the oracle for the nodes only
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 4e-16
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert abs(np.sum(w) - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [22, 64, 116, 288])
def test_gauss_legendre_weights_to_1e12(n):
    # numpy's leggauss weights drift to 1.1e-11 at 116 nodes; the Newton
    # rule's hold 1e-12 against 40 digits (every node up to 116, every
    # seventh at 288: the oracle costs O(n) mpmath steps a node)
    x, w = gauss_legendre(n)
    nodes = np.arange(0, n, 1 if n <= 116 else 7)
    ref = gauss_legendre_weights_mp(n, x[nodes])
    err = max(abs(float((w[i] - r) / r)) for i, r in zip(nodes, ref))
    assert err <= 1e-12
    assert np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n, error", [(0, ValueError), (-1, ValueError),
                                      (2.0, TypeError), (2.5, TypeError)])
def test_gauss_legendre_rejects_bad_n(n, error):
    gauss_legendre(2)   # cached first: 2.0 == 2 must not find its entry
    with pytest.raises(error):
        gauss_legendre(n)


@pytest.mark.parametrize("name, value, match", [("_NEWTON_PASSES", 2, "did not converge"),
                                                ("_TAYLOR_REACH", 1e-9, "reach")])
def test_gauss_legendre_gates_can_fail(monkeypatch, name, value, match):
    monkeypatch.setattr(specfun, name, value)
    with pytest.raises(RuntimeError, match=match):
        gauss_legendre.__wrapped__(40)


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
    with pytest.raises(ValueError, match="no direction"):
        ylm(1, 0, [0, 0, 0])
    with pytest.raises(ValueError, match="degree"):
        AngularGrid.for_degree(-1)


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


def test_ylm_table_matches_loop_oracle():
    # the row-vectorised tables reproduce the (l, m) double loop bit for bit
    rule = AngularGrid.for_degree(4 * 8 + 8)
    assert np.array_equal(ylm_table(8, rule.nodes), ylm_table_loop(8, rule.nodes))
    nodes = AngularGrid.for_degree(2 * 96).nodes[::37]
    assert np.array_equal(ylm_table(96, nodes), ylm_table_loop(96, nodes))
    assert np.array_equal(plm_norm_table(96, nodes[:, 2]), plm_norm_table_loop(96, nodes[:, 2]))
    d = np.array([0.3, -0.1, 0.5])
    assert np.array_equal(ylm_table(30, d), ylm_table_loop(30, d))


def test_ylm_high_l_normalisation():
    # single high-l rows stay normalised (recurrence stability); |Y_lm|^2
    # does not depend on phi, so one node per theta ring carries the ring's
    # summed weight
    g = AngularGrid.for_degree(2 * 96)
    tab = ylm_table(96, g.nodes[::g.n_phi])
    ring_weights = g.weights.reshape(-1, g.n_phi).sum(1)
    for lm in (sph_index(96, 0), sph_index(96, 50), sph_index(96, -96)):
        norm = np.dot(ring_weights, np.abs(tab[lm]) ** 2)
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
