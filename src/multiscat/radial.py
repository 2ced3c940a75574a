"""Radial Schroedinger solver: scattering phase shifts and on-shell amplitudes.

Integrates u'' = w(r) u, w = l(l+1)/r^2 + V(r) - k^2 (units hbar^2/2m = 1),
outward from r0 ~ 1e-5 to r_match, then matches the log-derivative there to

    u(r) -> k r [cos(eta) j_l(kr) - sin(eta) y_l(kr)],

which defines the phase shift eta_l(k).  Returned phase shifts live on the
branch (-pi/2, pi/2].

Each l has one integration plan, run at step scales 1 and 1/2:

* segment bounds sit on the potential's breakpoints, and every stretch
  with b/a > 2.5 is split in octaves (the same bounds for every l), so
  each segment sees w vary by a bounded factor;
* a contiguous classically forbidden run carrying more WKB action than
  ``_ACTION_KEEP`` is skipped up to its tail, where integration restarts
  from a WKB initial condition; otherwise it starts from the series
  u ~ r^{l+1} at r0;
* each segment is sized from w on 33 probes, with at least 8 steps;
* within a segment the first lattice value comes from RK4 in 8 substeps,
  the rest from the Numerov recurrence (in its summed form, on the
  differences of neighbouring values), and u' at the segment's end from
  the one-sided 5-point stencil.

Every step of that is linear in the segment's starting (u, u'), so each
Numerov step and each segment is a 2x2 map, and one sweep integrates
every segment of every l and both step scales at once
(``_segment_maps``): w is read on all lattices in one call of
``Potential.evaluate``, the step maps are cut into chunks of ``_CHUNK``
slots, each chunk is multiplied out in log2(_CHUNK) pairwise rounds, and
one tree (``_chain_chunks``) multiplies each segment's chunk maps and then
each plan's segment maps, also pairwise in log2 rounds.  The Python loops
thus run over rounds, never over a chunk's slots, a segment's length or a
plan's segments.  The plans (probes of w, WKB starts, step counts) are set
for every l at once too, each probe set in one evaluation.  A plan's
product, applied to its starting (u, u'), gives the log-derivative at
r_match, which is all matching needs.  A non-finite w, or a step count
above 400,000 on one segment, is a StepControlError.

The Richardson combination of the two step scales removes the h^4 Numerov
error, which matters when eta itself is tiny (high l, low k).

The on-shell partial-wave amplitude is

    t_lm(k0) = -sin(eta_l) exp(i eta_l) / k0,

an exactly unitary combination: Im t = -k0 |t|^2 for any real eta.
"""

from __future__ import annotations

import numpy as np

from multiscat.potentials import Potential
from multiscat.specfun import (
    bessel_derivative,
    bessel_j_table,
    bessel_y_table,
    octave_edges,
)

#: WKB action retained when fast-forwarding through a deeply forbidden region.
#: The discarded decaying admixture is suppressed by exp(-2 * action) ~ 1e-39.
_ACTION_KEEP = 45.0

#: Step-map slots per chunk of the sweep: a power of two, so that a chunk
#: is multiplied out in log2(_CHUNK) pairwise rounds.
_CHUNK = 32

#: Lattice nodes per sweep call; longer plans are swept in several calls,
#: which bounds the sweep's working arrays (about 30 MB at this size).
_SWEEP_NODES = 1 << 17

#: Step scales of the Richardson pair.
_SCALES = (1.0, 0.5)


class StepControlError(RuntimeError):
    """The Numerov integration cannot be carried out at a safe step size."""


def onshell_t_lm(eta, k0: float):
    """On-shell amplitude -sin(eta) e^{i eta} / k0 (elementwise for an array of eta)."""
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    return -np.sin(eta) * np.exp(1j * eta) / k0


def _branch(eta):
    """eta reduced to (-pi/2, pi/2]."""
    return np.where(eta > np.pi / 2, eta - np.pi,
                    np.where(eta <= -np.pi / 2, eta + np.pi, eta))


def _w(pot: Potential, l, k: float, r, a, b):
    """w(r) for partial waves l, with r read a hair inside [a, b] so that a
    node on a breakpoint sees the one-sided limit of a discontinuous V.

    l, r, a and b broadcast; V is evaluated once, on r.
    """
    eps = 1e-13 * np.maximum(1.0, b)
    r = np.clip(r, a + eps, b - eps)
    return l * (l + 1) / r ** 2 + pot.evaluate(r) - k * k


def _segments(pot: Potential, ls: np.ndarray, k: float, r_match: float):
    """Integration plan of each l, shared by every step size.

    Returns ``(plans, r0)``: per l, the (r_lo, r_hi) pairs to integrate
    and whether the first pair starts from a WKB initial condition; r0 is
    the series start radius.  Pair ends sit on the potential's breakpoints
    above r0, with every stretch split in octaves while b/a > 2.5.  A
    contiguous classically-forbidden stretch carrying more WKB action than
    _ACTION_KEEP is skipped up to its tail: the regular solution forgets
    its start across such a stretch (the admixture of the decaying branch
    is suppressed by exp(-2 action)), so integration restarts there.
    """
    r0 = min(1e-5 * max(pot.a, 1.0 / k), 1e-4)
    bps = sorted({b for b in pot.breakpoints() if r0 < b < r_match})

    edges = octave_edges([r0] + bps + [r_match])
    bounds = list(zip(edges[:-1], edges[1:]))

    # WKB action bookkeeping over contiguous fully-forbidden runs, from w
    # of every l on 129 probes per pair
    lo, hi = np.array(bounds).T
    xs = np.linspace(lo, hi, 129, axis=-1)
    wv = _w(pot, ls[:, None, None], k, xs, lo[:, None], hi[:, None])
    forbidden = wv.min(axis=-1) > 0
    sq = np.sqrt(np.clip(wv, 0.0, None))
    action = np.where(forbidden, np.trapezoid(sq, xs, axis=-1), 0.0)

    plans = []
    for fb, act, sql in zip(forbidden, action, sq):
        # one backward pass over the forbidden runs (i = -1 closes the
        # first): the last run carrying more than _ACTION_KEEP + 5 of action
        # keeps only its tail carrying _ACTION_KEEP, which starts inside
        # pair `tail` and takes the last `remaining` of that pair's action
        start_idx, start_r = 0, None
        run, remaining, tail = 0.0, _ACTION_KEEP, None
        for i in range(len(bounds) - 1, -2, -1):
            if i >= 0 and fb[i]:
                run += act[i]
                if tail is None:
                    if act[i] >= remaining:
                        tail = i
                    else:
                        remaining -= act[i]
                continue
            if run > _ACTION_KEEP + 5.0:
                x, s = xs[tail], sql[tail]
                cum = np.concatenate(
                    [[0.0], np.cumsum((s[1:] + s[:-1]) * 0.5 * np.diff(x))])
                target = cum[-1] - remaining
                idx = int(np.clip(np.searchsorted(cum, target), 1, len(x) - 1))
                # interpolate inside the probe cell; the lattice is far
                # coarser than 1/sqrt(w) when the action is huge
                c0, c1 = cum[idx - 1], cum[idx]
                frac = 0.0 if c1 == c0 else (target - c0) / (c1 - c0)
                start_idx = tail
                start_r = float(x[idx - 1] + frac * (x[idx] - x[idx - 1]))
                break
            run, remaining, tail = 0.0, _ACTION_KEEP, None
        own = list(bounds[start_idx:])
        if start_r is not None:
            own[0] = (start_r, own[0][1])
        plans.append(([(a, b) for a, b in own if b > a], start_r is not None))
    return plans, r0


def _steps(pot: Potential, l: np.ndarray, k: float, a: np.ndarray,
           b: np.ndarray) -> np.ndarray:
    """Numerov steps on each [a, b] for partial wave l, at least 8, per step scale.

    Returns (len(_SCALES), n_seg).  The step h is at most (b - a) / 16,
    0.012 scale / sqrt(-w) where w < 0 and 0.04 scale / sqrt(w) where
    w > 0, over w on 33 probes.
    """
    wv = _w(pot, l[:, None], k, np.linspace(a, b, 33, axis=-1), a[:, None], b[:, None])
    bad = ~np.isfinite(wv).all(axis=-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise StepControlError(f"w(r) is not finite on [{a[i]:.3g},{b[i]:.3g}]")
    s_osc = np.sqrt(np.maximum(-wv.min(axis=-1), 0.0))
    s_grow = np.sqrt(np.maximum(wv.max(axis=-1), 0.0))
    out = []
    for scale in _SCALES:
        h = (b - a) / 16.0
        for s, c in ((s_osc, 0.012), (s_grow, 0.04)):
            h = np.minimum(h, np.divide(c * scale, s, out=np.full_like(s, np.inf), where=s > 0))
        n = np.ceil((b - a) / h)
        if (n > 400_000).any():
            i = int(np.argmax(n > 400_000))
            raise StepControlError(
                f"step control wants {n[i]:.0f} nodes on [{a[i]:.3g},{b[i]:.3g}]; refusing")
        out.append(np.maximum(n, 8).astype(int))
    return np.array(out)


def _mul(B: np.ndarray, A: np.ndarray) -> np.ndarray:
    """B @ A for stacks of 2x2 maps laid out (2, 2, n), entry by entry."""
    return np.array([[B[0, 0] * A[0, 0] + B[0, 1] * A[1, 0],
                      B[0, 0] * A[0, 1] + B[0, 1] * A[1, 1]],
                     [B[1, 0] * A[0, 0] + B[1, 1] * A[1, 0],
                      B[1, 0] * A[0, 1] + B[1, 1] * A[1, 1]]])


def _chain_chunks(M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each group's product of its consecutive maps, later @ earlier.

    M stacks the maps (2, 2, n), every group's maps contiguous and in
    order; counts[s] is group s's map count.  The groups are a segment's
    chunks in _segment_maps and a plan's segments in phase_shift.
    Neighbouring pairs are multiplied in ceil(log2(max count)) rounds.
    Every map is divided by its largest entry, the given maps first and
    then each product: a positive factor on a map leaves the
    log-derivative it delivers unchanged, and a map that is already
    normalised is left bit for bit as it is.
    """
    M = M / np.abs(M).max(axis=(0, 1))
    while counts.max() > 1:
        seg = np.repeat(np.arange(counts.size), counts)
        pos = np.arange(seg.size) - (np.cumsum(counts) - counts)[seg]
        left = np.flatnonzero(pos % 2 == 0)
        paired = pos[left] + 1 < counts[seg[left]]
        A = M[..., left]
        M = np.where(paired, _mul(M[..., np.where(paired, left + 1, left)], A), A)
        M = M / np.abs(M).max(axis=(0, 1))
        counts = (counts + 1) // 2
    return M


def _segment_maps(pot: Potential, k: float, l: np.ndarray, a: np.ndarray,
                  b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Numerov map of each segment [a, b] in n >= 8 steps for partial wave l.

    Returns (2, 2, n_seg): the map taking (u, u') at a to (u, u') at b, up
    to a positive factor per segment.  The first lattice value comes from
    RK4 in 8 substeps, the rest from the Numerov recurrence, and u' at b
    from the one-sided 5-point stencil, each run on the two basis starts
    (u, u') = (1, 0) and (0, 1).

    The recurrence c_{i+1} v_{i+1} = g_i v_i - c_{i-1} v_{i-1} runs in its
    summed form on the state (v_i, d_{i-1}), d_i = v_{i+1} - v_i:

        d_i = (q_i v_i + c_{i-1} d_{i-1}) / c_{i+1},   v_{i+1} = v_i + d_i,
        q_i = g_i - c_{i-1} - c_{i+1} = (h^2/12) (w_{i-1} + 10 w_i + w_{i+1}),

    whose maps over many steps stay well conditioned where adjacent v are
    nearly equal (a map on (v_{i-1}, v_i) there loses ~1/(k h) in
    cancellation at every product).  Step i is the map

        (v_i, d_{i-1}) -> (v_{i+1}, d_i):  [[1 + a_i, b_i], [a_i, b_i]],
        a_i = q_i / c_{i+1},  b_i = c_{i-1} / c_{i+1}.

    Steps 1..n-4 fill chunks of _CHUNK slots, each segment's first chunk
    padded at its start with identity maps; each chunk is multiplied out in
    log2(_CHUNK) pairwise rounds and the chunk maps per segment
    (_chain_chunks).  The last three steps and the stencil, written on the
    d's, run on the product.
    """
    nseg = n.size
    h = (b - a) / n
    hh = h / 8
    size = n + 1
    start = np.cumsum(size) - size            # flat index of each segment's v[0]
    r = np.repeat(a, size) + np.repeat(h, size) * (np.arange(start[-1] + size[-1])
                                                   - np.repeat(start, size))
    # RK4 nodes of the first step: substep starts accumulated as x += hh,
    # and their midpoints
    xs = np.cumsum(np.column_stack([a] + [hh] * 8), axis=1)
    ab = np.empty((nseg, 17))
    ab[:, 0::2] = xs
    ab[:, 1::2] = xs[:, :-1] + 0.5 * hh[:, None]
    # w on every lattice and RK4 node in one evaluation
    per = np.concatenate([size, np.full(nseg, 17)])
    lw, aw, bw = (np.repeat(np.tile(x, 2), per) for x in (l, a, b))
    w = _w(pot, lw, k, np.concatenate([r, ab.ravel()]), aw, bw)
    wv, wb = w[:r.size], w[r.size:].reshape(nseg, 17)

    # RK4 over the first step, per basis start (rows); d0 sums the
    # increments of u, so v1 - v0 is not formed by cancellation
    y0 = np.array([np.ones(nseg), np.zeros(nseg)])
    y1 = y0[::-1].copy()
    d0 = np.zeros_like(y0)
    for s in range(8):
        w0, wm, w1 = wb[:, 2 * s], wb[:, 2 * s + 1], wb[:, 2 * s + 2]
        k1a, k1b = y1, w0 * y0
        k2a, k2b = y1 + 0.5 * hh * k1b, wm * (y0 + 0.5 * hh * k1a)
        k3a, k3b = y1 + 0.5 * hh * k2b, wm * (y0 + 0.5 * hh * k2a)
        k4a, k4b = y1 + hh * k3b, w1 * (y0 + hh * k3a)
        inc = (hh / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        y0 = y0 + inc
        d0 = d0 + inc
        y1 = y1 + (hh / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)

    hs = np.repeat(h * h / 12.0, size)
    c = 1.0 - hs * wv
    q = np.zeros_like(wv)
    q[1:-1] = hs[1:-1] * (wv[:-2] + 10.0 * wv[1:-1] + wv[2:])

    # steps i = 1..n-4 as maps in chunks laid out (n_chunks, _CHUNK); a
    # segment's slot j holds step j - pad + 1, and its first pad slots the
    # identity
    steps = n - 4
    chunks = -(-steps // _CHUNK)
    slots = chunks * _CHUNK
    pad = slots - steps
    node = np.arange(slots.sum()) + np.repeat(start - (np.cumsum(slots) - slots) - pad + 1, slots)
    padded = node <= np.repeat(start, slots)
    node = np.where(padded, 0, node)
    M = np.empty((2, 2, node.size))
    M[1, 0] = q[node] / c[node + 1]
    M[0, 1] = M[1, 1] = c[node - 1] / c[node + 1]
    M[0, 0] = 1.0 + M[1, 0]
    M[..., padded] = np.eye(2)[..., None]
    M = M.reshape(2, 2, -1, _CHUNK)
    while M.shape[-1] > 1:
        M = _mul(M[..., 1::2], M[..., 0::2])
    K = _chain_chunks(M[..., 0], chunks)

    # (v[n-3], d[n-4]) as coefficients of the segment's starting (u, u'),
    # from (v[1], d[0]) = (y0, d0); then steps n-3..n-1
    v = K[0, 0] * y0 + K[0, 1] * d0
    ds = [K[1, 0] * y0 + K[1, 1] * d0]
    for e in (start + n - 3, start + n - 2, start + n - 1):
        ds.append((q[e] * v + c[e - 1] * ds[-1]) / c[e + 1])
        v = v + ds[-1]
    # the 5-point stencil (3, -16, 36, -48, 25) v / (12 h) on the d's
    up_end = (-3.0 * ds[0] + 13.0 * ds[1] - 23.0 * ds[2] + 25.0 * ds[3]) / (12.0 * h)
    F = np.array([v, up_end])
    if not np.isfinite(F).all():
        raise StepControlError("Numerov segment produced non-finite values")
    return F


def _riccati(l: int, x: float):
    """(x j_l, d/dx (x j_l), x y_l, d/dx (x y_l)) at x."""
    J, Y = bessel_j_table(max(l, 1), x), bessel_y_table(max(l, 1), x)
    jl, jlp = J[l], bessel_derivative(J, x)[l]
    yl, ylp = Y[l], bessel_derivative(Y, x)[l]
    return x * jl, jl + x * jlp, x * yl, yl + x * ylp


def phase_shift(pot: Potential, l, k: float, *, r_match: float | None = None):
    """Scattering phase shift eta_l(k), reduced to (-pi/2, pi/2].

    ``l`` is one partial wave (returns a float) or a sequence of them
    (returns an array, one sweep for all).  r_match defaults to slightly
    beyond the effective support.  Passing an r_match inside the support
    is a configuration error.  Each value is the Richardson combination of
    its l's integration plan run at step scales 1 and 1/2.
    """
    scalar = isinstance(l, (int, np.integer))
    ls = np.array([l] if scalar else list(l), dtype=int)
    if k <= 0:
        raise ValueError("k must be positive")
    if np.any(ls < 0):
        raise ValueError("l must be nonnegative")
    if ls.size == 0:
        return np.empty(0)
    r_eff = pot.effective_radius()
    if r_match is None:
        r_match = max(1.05 * r_eff, r_eff + 0.5 / k, 1.0 / k)
    elif r_match < r_eff:
        raise ValueError(f"r_match={r_match} lies inside the effective support "
                         f"(radius {r_eff:.4g})")

    plans, r0 = _segments(pot, ls, k, r_match)
    wkb = np.array([p[1] for p in plans])
    seg_l = np.concatenate([[l_] * len(p[0]) for l_, p in zip(ls, plans)])
    a, b = np.array([ab for p in plans for ab in p[0]]).T
    counts = np.array([len(p[0]) for p in plans] * len(_SCALES))
    seg_l2, a2, b2 = (np.tile(x, len(_SCALES)) for x in (seg_l, a, b))
    n = _steps(pot, seg_l, k, a, b).ravel()

    # the sweep, in calls of about _SWEEP_NODES lattice nodes
    cuts = [0, *np.flatnonzero(np.diff(np.cumsum(n + 1) // _SWEEP_NODES)) + 1, n.size]
    F = np.concatenate([_segment_maps(pot, k, seg_l2[p:q], a2[p:q], b2[p:q], n[p:q])
                        for p, q in zip(cuts[:-1], cuts[1:])], axis=-1)

    # starts: WKB (u, u') = (1, sqrt(w)) at the first pair's start, else the
    # series u ~ r^{l+1} (1 + c2 r^2), normalised to u(r0) = 1
    first = np.cumsum(counts) - counts
    a0, b0 = a[first[:ls.size]], b[first[:ls.size]]
    w_start = _w(pot, ls, k, a0, a0, b0)
    c2 = (pot.evaluate(r0) - k * k) / (2.0 * (2 * ls + 3))
    series = (ls + 1) / r0 + 2.0 * c2 * r0 / (1.0 + c2 * r0 * r0)
    up = np.tile(np.where(wkb, np.sqrt(np.maximum(w_start, 0.0)), series), len(_SCALES))
    # each plan's product of its segment maps takes (1, u') at its start to
    # (u, u') at r_match, up to a positive factor
    P = _chain_chunks(F, counts)
    gamma = ((P[1, 0] + P[1, 1] * up) / (P[0, 0] + P[0, 1] * up)).reshape(len(_SCALES), -1)

    # log-derivative match against Riccati-Bessel combinations, each l from
    # tables of orders 0..max(l, 1) (the derivative of order 0 reads order
    # 1), so that an l's value does not depend on the others swept with it
    x = k * r_match
    rj, rjp, ry, ryp = np.array([_riccati(int(l_), x) for l_ in ls]).T
    full, half = _branch(np.arctan2(k * rjp - gamma * rj, k * ryp - gamma * ry))
    d = half - full
    d = (d + np.pi / 2) % np.pi - np.pi / 2
    eta = _branch(half + d / 15.0)
    return float(eta[0]) if scalar else eta
