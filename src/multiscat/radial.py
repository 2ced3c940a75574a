"""Radial Schroedinger solver: scattering phase shifts and on-shell amplitudes.

Integrates u'' = w(r) u, w = l(l+1)/r^2 + V(r) - k^2 (units hbar^2/2m = 1),
outward from r0 ~ 1e-5 to r_match, then matches the log-derivative there to

    u(r) -> k r [cos(eta) j_l(kr) - sin(eta) y_l(kr)],

which defines the phase shift eta_l(k).  Returned phase shifts live on the
branch (-pi/2, pi/2].

One integration plan serves every step size:

* segment bounds sit on the potential's breakpoints, and every stretch
  with b/a > 2.5 is split in octaves, so each segment sees w vary by a
  bounded factor;
* a contiguous classically forbidden run carrying more WKB action than
  ``_ACTION_KEEP`` is skipped up to its tail, where integration restarts
  from a WKB initial condition; otherwise it starts from the series
  u ~ r^{l+1} at r0;
* each segment is sized from w on 33 probes, with at least 8 steps;
* within a segment the first lattice value comes from RK4 in 8 substeps,
  the rest from the Numerov recurrence, and u' at the segment's end from
  the one-sided 5-point stencil.

The plan is integrated at step scales 1 and 1/2, and the Richardson
combination of the two removes the h^4 Numerov error, which matters when
eta itself is tiny (high l, low k).

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
    """The Numerov integration cannot be carried out at a safe step size."""


def onshell_t_lm(eta: float, k0: float) -> complex:
    """On-shell amplitude -sin(eta) e^{i eta} / k0."""
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    return -np.sin(eta) * np.exp(1j * eta) / k0


def _branch(eta):
    """eta reduced to (-pi/2, pi/2]."""
    if eta > np.pi / 2:
        eta -= np.pi
    elif eta <= -np.pi / 2:
        eta += np.pi
    return float(eta)


def _w(pot: Potential, l: int, k: float, a: float, b: float):
    """w(r) on [a, b], read a hair inside the ends so that a node on a
    breakpoint sees the one-sided limit of a discontinuous V."""
    eps = 1e-13 * max(1.0, b)
    lo, hi = a + eps, b - eps

    def w(r):
        r = np.clip(np.asarray(r, dtype=float), lo, hi)
        return l * (l + 1) / r ** 2 + pot.evaluate(r) - k * k

    return w


def _numerov_segment(w, r_lo, r_hi, u, up, n):
    """Numerov integration of u'' = w(r) u over [r_lo, r_hi] with n >= 8 steps.

    Starts from (u, u') at r_lo, takes the first lattice value from RK4 in
    8 substeps and returns (u, u') at r_hi, the derivative from the
    one-sided 5-point stencil.  The solution is renormalised whenever it
    grows large; only the log-derivative survives, which is all matching
    needs.
    """
    h = (r_hi - r_lo) / n
    r = r_lo + h * np.arange(n + 1)
    wv = w(r)

    # RK4 over the first step; w is evaluated once, on the substep starts
    # (accumulated as x += hh) and their midpoints
    sub = 8
    hh = h / sub
    xs = np.empty(sub + 1)
    xs[0] = r_lo
    for s in range(sub):
        xs[s + 1] = xs[s] + hh
    ab = np.empty(2 * sub + 1)
    ab[0::2] = xs
    ab[1::2] = xs[:-1] + 0.5 * hh
    wb = w(ab)
    y0, y1 = u, up
    for s in range(sub):
        w0, wm, w1 = wb[2 * s], wb[2 * s + 1], wb[2 * s + 2]
        k1a, k1b = y1, w0 * y0
        k2a, k2b = y1 + 0.5 * hh * k1b, wm * (y0 + 0.5 * hh * k1a)
        k3a, k3b = y1 + 0.5 * hh * k2b, wm * (y0 + 0.5 * hh * k2a)
        k4a, k4b = y1 + hh * k3b, w1 * (y0 + hh * k3a)
        y0 = y0 + (hh / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        y1 = y1 + (hh / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)

    vals = np.empty(n + 1)
    vals[0], vals[1] = u, y0
    c = 1.0 - (h * h / 12.0) * wv
    g = 2.0 * (1.0 + 5.0 * h * h / 12.0 * wv)
    for i in range(1, n):
        nxt = (g[i] * vals[i] - c[i - 1] * vals[i - 1]) / c[i + 1]
        vals[i + 1] = nxt
        if abs(nxt) > 1e120:
            vals[: i + 2] /= abs(nxt)
    if not np.isfinite(vals[n]):
        raise StepControlError("Numerov segment produced non-finite values")

    up_end = (3.0 * vals[n - 4] - 16.0 * vals[n - 3] + 36.0 * vals[n - 2]
              - 48.0 * vals[n - 1] + 25.0 * vals[n]) / (12.0 * h)
    return vals[n], up_end


def _segments(pot: Potential, l: int, k: float, r_match: float):
    """Integration plan shared by every step size.

    Returns ``(bounds, r0, wkb_start)``: the (r_lo, r_hi) pairs to
    integrate, the series start radius, and whether the first pair starts
    from a WKB initial condition.  Pair ends sit on the potential's
    breakpoints above r0, with every stretch split in octaves while
    b/a > 2.5.  A contiguous classically-forbidden stretch carrying more
    WKB action than _ACTION_KEEP is skipped up to its tail: the regular
    solution forgets its start across such a stretch (the admixture of the
    decaying branch is suppressed by exp(-2 action)), so integration
    restarts there.
    """
    r0 = min(1e-5 * max(pot.a, 1.0 / k), 1e-4)
    bps = sorted({b for b in pot.breakpoints() if r0 < b < r_match})

    bounds = []
    for a, b in zip([r0] + bps, bps + [r_match]):
        while b / a > 2.5:
            bounds.append((a, a * 2.0))
            a *= 2.0
        bounds.append((a, b))

    # WKB action bookkeeping over contiguous fully-forbidden runs
    probes = []
    for a, b in bounds:
        xs = np.linspace(a, b, 129)
        wv = _w(pot, l, k, a, b)(xs)
        forbidden = bool(wv.min() > 0)
        sq = np.sqrt(np.clip(wv, 0.0, None))
        action = float(np.trapezoid(sq, xs)) if forbidden else 0.0
        probes.append((forbidden, action, xs, sq))

    start_idx, start_r = 0, None
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
                    break
                remaining -= probes[kk][1]
        i = j

    if start_r is not None:
        bounds[start_idx] = (start_r, bounds[start_idx][1])
    return [(a, b) for a, b in bounds[start_idx:] if b > a], r0, start_r is not None


def _steps(w, a: float, b: float, scale: float) -> int:
    """Numerov steps on [a, b], at least 8.

    The step h is at most (b - a) / 16, 0.012 scale / sqrt(-w) where w < 0
    and 0.04 scale / sqrt(w) where w > 0, over w on 33 probes.
    """
    wv = w(np.linspace(a, b, 33))
    s_osc = np.sqrt(max(-wv.min(), 0.0))
    s_grow = np.sqrt(max(wv.max(), 0.0))
    h = (b - a) / 16.0
    if s_osc > 0:
        h = min(h, 0.012 * scale / s_osc)
    if s_grow > 0:
        h = min(h, 0.04 * scale / s_grow)
    n = int(np.ceil((b - a) / h))
    if n > 400_000:
        raise StepControlError(
            f"step control wants {n} nodes on [{a:.3g},{b:.3g}]; refusing")
    return max(n, 8)


def phase_shift(pot: Potential, l: int, k: float, *, r_match: float | None = None) -> float:
    """Scattering phase shift eta_l(k), reduced to (-pi/2, pi/2].

    r_match defaults to slightly beyond the effective support.  Passing an
    r_match inside the support is a configuration error.  The value is the
    Richardson combination of one integration plan run at step scales 1
    and 1/2.
    """
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

    bounds, r0, wkb_start = _segments(pot, l, k, r_match)
    ws = [_w(pot, l, k, a, b) for a, b in bounds]
    plans = [[_steps(w, a, b, s) for w, (a, b) in zip(ws, bounds)] for s in (1.0, 0.5)]

    if wkb_start:
        u0, up0 = 1.0, float(np.sqrt(ws[0](bounds[0][0])))
    else:
        # series start u ~ r^{l+1} (1 + c2 r^2), normalised to u(r0) = 1
        c2 = (pot.evaluate(r0) - k * k) / (2.0 * (2 * l + 3))
        u0 = 1.0
        up0 = (l + 1) / r0 + 2.0 * c2 * r0 / (1.0 + c2 * r0 * r0)

    # log-derivative match against Riccati-Bessel combinations
    x = k * r_match
    # orders 0..max(l, 1): the derivative of order 0 reads order 1
    J, Y = bessel_j_table(max(l, 1), x), bessel_y_table(max(l, 1), x)
    jl, jlp = J[l], bessel_derivative(J, x)[l]
    yl, ylp = Y[l], bessel_derivative(Y, x)[l]
    rj, rjp = x * jl, jl + x * jlp      # (x j_l) and d/dx (x j_l)
    ry, ryp = x * yl, yl + x * ylp

    def integrate(steps):
        u, up = u0, up0
        for w, (a, b), n in zip(ws, bounds, steps):
            u, up = _numerov_segment(w, a, b, u, up, n)
            if abs(u) > 1e100 or abs(up) > 1e100:
                u, up = u / abs(u), up / abs(u)
        gamma = up / u
        return _branch(np.arctan2(k * rjp - gamma * rj, k * ryp - gamma * ry))

    full, half = (integrate(steps) for steps in plans)
    d = half - full
    d = (d + np.pi / 2) % np.pi - np.pi / 2
    return _branch(half + d / 15.0)
