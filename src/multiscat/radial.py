"""Radial Schroedinger solver: scattering phase shifts and on-shell amplitudes.

Integrates u'' = [l(l+1)/r^2 + V(r) - k^2] u outward (units hbar^2/2m = 1)
with the Numerov scheme on piecewise-uniform grids that are split at the
potential's breakpoints, then matches the log-derivative at r_match to

    u(r) -> k r [cos(eta) j_l(kr) - sin(eta) y_l(kr)],

which defines the phase shift eta_l(k).  Returned phase shifts live on the
branch (-pi/2, pi/2].

The on-shell partial-wave amplitude is

    t_lm(k0) = -sin(eta_l) exp(i eta_l) / k0,

an exactly unitary combination: Im t = -k0 |t|^2 for any real eta.
"""

from __future__ import annotations

import numpy as np

from multiscat.potentials import Potential
from multiscat.specfun import bessel_derivative, bessel_j_table, bessel_y_table

#: WKB action retained when fast-forwarding through a deeply forbidden region.
#: The discarded decaying admixture is suppressed by exp(-2 * action) ~ 1e-39.
_ACTION_KEEP = 45.0


class StepControlError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


def onshell_t_lm(eta: float, k0: float) -> complex:
    """On-shell amplitude -sin(eta) e^{i eta} / k0."""
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    return -np.sin(eta) * np.exp(1j * eta) / k0


def _numerov_segment(w, r_lo, r_hi, u, up, n):
    """Numerov integration of u'' = w(r) u over [r_lo, r_hi] with n steps.

    Starts from (u, u') at r_lo (two lattice values bootstrapped with
    sub-stepped RK4) and returns (u, u') at r_hi, the derivative from a
    one-sided 5-point stencil.  The solution is renormalised whenever it
    grows large; only the log-derivative survives, which is all matching
    needs.
    """
    h = (r_hi - r_lo) / n
    r = r_lo + h * np.arange(n + 1)
    wv = w(r)

    # RK4 bootstrap for the first two lattice points; w is evaluated once,
    # on the substep starts (accumulated as x += hh) and their midpoints
    vals = np.empty(n + 1)
    vals[0] = u
    sub = 8
    hh = h / sub
    steps = min(n, 2) * sub
    xs = np.empty(steps + 1)
    xs[0] = r_lo
    for s in range(steps):
        xs[s + 1] = xs[s] + hh
    ab = np.empty(2 * steps + 1)
    ab[0::2] = xs
    ab[1::2] = xs[:-1] + 0.5 * hh
    wb = w(ab)
    y0, y1 = u, up
    for s in range(steps):
        w0, wm, w1 = wb[2 * s], wb[2 * s + 1], wb[2 * s + 2]
        k1a, k1b = y1, w0 * y0
        k2a, k2b = y1 + 0.5 * hh * k1b, wm * (y0 + 0.5 * hh * k1a)
        k3a, k3b = y1 + 0.5 * hh * k2b, wm * (y0 + 0.5 * hh * k2a)
        k4a, k4b = y1 + hh * k3b, w1 * (y0 + hh * k3a)
        y0 = y0 + (hh / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        y1 = y1 + (hh / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
        if (s + 1) % sub == 0:
            vals[(s + 1) // sub] = y0
    if n == 1:
        return vals[1], y1

    c = 1.0 - (h * h / 12.0) * wv
    g = 2.0 * (1.0 + 5.0 * h * h / 12.0 * wv)
    scale = 0.0
    for i in range(1, n):
        nxt = (g[i] * vals[i] - c[i - 1] * vals[i - 1]) / c[i + 1]
        vals[i + 1] = nxt
        if abs(nxt) > 1e120:
            vals[: i + 2] /= abs(nxt)
            scale += np.log(abs(nxt))
    if not np.isfinite(vals[n]):
        raise StepControlError("Numerov segment produced non-finite values",
                               residual=vals[n])

    m = min(n, 4)
    stencils = {
        1: ([-1.0, 1.0], 1.0),
        2: ([1.0, -4.0, 3.0], 2.0),
        3: ([-2.0, 9.0, -18.0, 11.0], 6.0),
        4: ([3.0, -16.0, 36.0, -48.0, 25.0], 12.0),
    }
    coef, den = stencils[m]
    up_end = sum(cij * vals[n - m + j] for j, cij in enumerate(coef)) / (den * h)
    return vals[n], up_end


def _segments(pot: Potential, l: int, k: float, r_match: float, step_scale: float):
    """Piecewise-uniform integration plan.

    Returns ``(segments, r0, wkb_start)`` where segments are (r_lo, r_hi, n)
    triples.  Segment boundaries sit on the potential's breakpoints, with
    dyadic refinement towards the origin for the centrifugal term.  A
    contiguous classically-forbidden stretch carrying more WKB action than
    _ACTION_KEEP is skipped up to its tail: the regular solution forgets
    its start across such a stretch (the admixture of the decaying branch
    is suppressed by exp(-2 action)), so integration restarts there from a
    WKB initial condition.
    """
    bps = sorted({b for b in pot.breakpoints() if b < r_match})
    edges = [0.0] + bps + [r_match]
    r0 = min(1e-5 * max(pot.a, 1.0 / k), 1e-4)

    def w(r):
        r = np.clip(np.asarray(r, dtype=float), r0, None)
        return l * (l + 1) / r ** 2 + pot.evaluate(r) - k * k

    # geometry first: dyadic split of the innermost stretch, then breakpoints
    bounds = []
    first_end = edges[1]
    lo = r0
    while first_end / lo > 2.5:
        bounds.append((lo, lo * 2.0))
        lo *= 2.0
    bounds.append((lo, first_end))
    for a, b in zip(edges[1:-1], edges[2:]):
        if b > a:
            bounds.append((a, b))

    # WKB action bookkeeping over contiguous fully-forbidden runs
    probes = []
    for a, b in bounds:
        xs = np.linspace(a, b, 129)
        wv = w(np.clip(xs, a + 1e-13 * max(1.0, b), b - 1e-13 * max(1.0, b)))
        forbidden = bool(wv.min() > 0)
        action = float(np.trapezoid(np.sqrt(np.clip(wv, 0.0, None)), xs)) if forbidden else 0.0
        probes.append((forbidden, action, xs, np.sqrt(np.clip(wv, 0.0, None))))

    start_idx, start_r, wkb_start = 0, None, False
    i = 0
    while i < len(bounds):
        if not probes[i][0]:
            i += 1
            continue
        j = i
        run_action = 0.0
        while j < len(bounds) and probes[j][0]:
            run_action += probes[j][1]
            j += 1
        if run_action > _ACTION_KEEP + 5.0:
            # keep only the run's tail carrying _ACTION_KEEP of action
            remaining = _ACTION_KEEP
            for kk in range(j - 1, i - 1, -1):
                if probes[kk][1] >= remaining:
                    xs, sq = probes[kk][2], probes[kk][3]
                    cum = np.concatenate([[0.0], np.cumsum((sq[1:] + sq[:-1]) * 0.5 * np.diff(xs))])
                    target = cum[-1] - remaining
                    idx = int(np.clip(np.searchsorted(cum, target), 1, len(xs) - 1))
                    # interpolate inside the probe cell; the lattice is far
                    # coarser than 1/sqrt(w) when the action is huge
                    c0, c1 = cum[idx - 1], cum[idx]
                    frac = 0.0 if c1 == c0 else (target - c0) / (c1 - c0)
                    start_idx = kk
                    start_r = float(xs[idx - 1] + frac * (xs[idx] - xs[idx - 1]))
                    wkb_start = True
                    break
                remaining -= probes[kk][1]
        i = j

    def plan(a, b):
        rr = np.linspace(a, b, 33)
        wv = w(np.clip(rr, a + 1e-13 * max(1.0, b), b - 1e-13 * max(1.0, b)))
        s_osc = np.sqrt(max(-wv.min(), 0.0))
        s_grow = np.sqrt(max(wv.max(), 0.0))
        h = (b - a) / 16.0
        if s_osc > 0:
            h = min(h, 0.012 * step_scale / s_osc)
        if s_grow > 0:
            h = min(h, 0.04 * step_scale / s_grow)
        n = int(np.ceil((b - a) / h))
        if n > 400_000:
            raise StepControlError(
                f"step control wants {n} nodes on [{a:.3g},{b:.3g}]; "
                "refusing (adjust step_scale or the scenario)")
        return max(n, 8)

    segs = []
    for idx in range(start_idx, len(bounds)):
        a, b = bounds[idx]
        if idx == start_idx and start_r is not None:
            a = start_r
        if b > a:
            segs.append((a, b, plan(a, b)))
    return segs, r0, wkb_start


def phase_shift(pot: Potential, l: int, k: float, *, r_match: float | None = None,
                step_scale: float = 1.0, richardson: bool = True) -> float:
    """Scattering phase shift eta_l(k), reduced to (-pi/2, pi/2].

    r_match defaults to slightly beyond the effective support.  Passing an
    r_match inside the support is a configuration error.  By default the
    h^4 Numerov error is removed by a step-halving Richardson combination,
    which matters when eta itself is tiny (high l, low k).
    """
    if richardson:
        full = phase_shift(pot, l, k, r_match=r_match, step_scale=step_scale,
                           richardson=False)
        half = phase_shift(pot, l, k, r_match=r_match, step_scale=0.5 * step_scale,
                           richardson=False)
        d = half - full
        d = (d + np.pi / 2) % np.pi - np.pi / 2
        eta = half + d / 15.0
        if eta > np.pi / 2:
            eta -= np.pi
        elif eta <= -np.pi / 2:
            eta += np.pi
        return float(eta)
    if k <= 0:
        raise ValueError("k must be positive")
    if l < 0:
        raise ValueError("l must be nonnegative")
    r_eff = pot.effective_radius()
    if r_match is None:
        r_match = max(1.05 * r_eff, r_eff + 0.5 / k, 1.0 / k)
    elif r_match < r_eff:
        raise ValueError(f"r_match={r_match} lies inside the effective support "
                         f"(radius {r_eff:.4g})")

    segs, r0, wkb_start = _segments(pot, l, k, r_match, step_scale)

    def w_oneside(lo, hi):
        # clip evaluation points a hair inside the segment so boundary nodes
        # see the one-sided limit of a discontinuous V
        eps = 1e-13 * max(1.0, hi)

        def w(r):
            r = np.clip(np.asarray(r, dtype=float), max(lo + eps, r0), hi - eps)
            return l * (l + 1) / r ** 2 + pot.evaluate(r) - k * k

        return w

    if wkb_start:
        r_s = segs[0][0]
        u, up = 1.0, float(np.sqrt(w_oneside(r_s, segs[0][1])(r_s)))
    else:
        # series start u ~ r^{l+1} (1 + c2 r^2), normalised to u(r0) = 1
        c2 = (pot.evaluate(r0) - k * k) / (2.0 * (2 * l + 3))
        u = 1.0
        up = (l + 1) / r0 + 2.0 * c2 * r0 / (1.0 + c2 * r0 * r0)

    for (a, b, n) in segs:
        u, up = _numerov_segment(w_oneside(a, b), a, b, u, up, n)
        if abs(u) > 1e100 or abs(up) > 1e100:
            u, up = u / abs(u), up / abs(u)

    # log-derivative match against Riccati-Bessel combinations
    x = k * r_match
    # orders 0..max(l, 1): the derivative of order 0 reads order 1
    J, Y = bessel_j_table(max(l, 1), x), bessel_y_table(max(l, 1), x)
    jl, jlp = J[l], bessel_derivative(J, x)[l]
    yl, ylp = Y[l], bessel_derivative(Y, x)[l]
    rj, rjp = x * jl, jl + x * jlp      # (x j_l) and d/dx (x j_l)
    ry, ryp = x * yl, yl + x * ylp
    gamma = up / u
    num = k * rjp - gamma * rj
    den = k * ryp - gamma * ry
    eta = np.arctan2(num, den)
    if eta > np.pi / 2:
        eta -= np.pi
    elif eta <= -np.pi / 2:
        eta += np.pi
    return float(eta)
