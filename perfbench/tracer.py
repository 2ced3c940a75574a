"""Span tracer that wraps multiscat's layer functions from outside the package.

``install(tracer)`` replaces each probed function with a wrapper that opens a
span around the call.  ``multiscatter`` and ``cli`` bind layer functions by
name at import (``from multiscat.greens import structure_constants``), so a
module-level function is patched under every name that any ``multiscat``
module binds it to; methods and classmethods are patched on their class.
Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start, end, parent_index, self_s]``;
a span's self time is its duration minus the durations of its direct
children.  Each wrapper also times its own bookkeeping (argument binding,
key hashing, span entry and exit) outside the span it opens and adds it to
``overhead_s``.  ``layer_metrics`` turns one traced run into the per-layer
metrics named in ``PER_LAYER``.

``install_marks`` is the light variant used in the timed samples: at the
same probes it only records the clock, so ``run.py`` can cut a run into
steps (see ``run.fastest_steps_s``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (metric name, unit); the order is the order of BENCHMARK.json["per_layer"]
PER_LAYER = [
    ("cli.validate_config.s", "s"),
    ("cli.artifacts.s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("multiscatter.x_alpha.calls", "count"),
    ("multiscatter.x_alpha.self_s", "s"),
    ("multiscatter.x_alpha.unique_frac", "ratio"),
    ("multiscatter.offshell.calls", "count"),
    ("multiscatter.offshell.hit_frac", "ratio"),
    ("multiscatter.x0_structconst.calls", "count"),
    ("multiscatter.x0_structconst.self_s", "s"),
    ("multiscatter.born_term.self_s", "s"),
    ("multiscatter.eps_extrapolate.calls", "count"),
    ("multiscatter.verify.self_s", "s"),
    ("lippmann.solve.calls", "count"),
    ("lippmann.solve.self_s", "s"),
    ("lippmann.solve.unique_frac", "ratio"),
    ("lippmann.solve.rhs_cols", "count"),
    ("lippmann.solve.gflop", "gflop_computed"),
    ("lippmann.grid_nodes", "count"),
    ("lippmann.vl_matrix.calls", "count"),
    ("lippmann.vl_matrix.s", "s"),
    ("lippmann.vl_matrix.unique_frac", "ratio"),
    ("radial.phase_shift.calls", "count"),
    ("radial.phase_shift.s", "s"),
    ("greens.structure_constants.calls", "count"),
    ("greens.structure_constants.s", "s"),
    ("greens.schatten_spectral.calls", "count"),
    ("greens.schatten_spectral.s", "s"),
    ("greens.decay_diagnostic.s", "s"),
    ("greens.ktilde_build.s", "s"),
    ("greens.schatten_grid.s", "s"),
    ("greens.schatten_grid.points", "count"),
    ("specfun.angular_grid.calls", "count"),
    ("specfun.angular_grid.s", "s"),
    ("specfun.angular_grid.max_nodes", "count"),
    ("specfun.ylm_table.calls", "count"),
    ("specfun.ylm_table.s", "s"),
    ("potentials.rollnik_check.s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory spans and counters for one single-threaded run."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent_index, self_s]
        self._open: list = []      # [span index, seconds covered by children]
        self.counters: dict = {}   # summed quantities
        self.peaks: dict = {}      # maximum quantities
        self.keys: dict = {}       # span name -> set of distinct work items
        self.overhead_s = 0.0      # wrapper time spent outside the spans

    @property
    def current(self) -> str | None:
        return self.spans[self._open[-1][0]][0] if self._open else None

    def enter(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        return len(self.spans) - 1

    def exit(self) -> None:
        end = time.perf_counter()
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[4] = duration - covered
        if self._open:
            self._open[-1][1] += duration

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def summary(self) -> dict:
        """Span name -> {"calls", "self_s"} over all recorded spans."""
        out: dict = {}
        for name, _start, _end, _parent, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return out

    def duration(self, name: str) -> float:
        """Summed wall time of the spans called ``name``, children included."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        return sum(1 for s in self.spans
                   if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name)


def _vl_key(a):
    return (a["pot"], a["l"], np.asarray(a["momenta"]).tobytes(), a["scale"])


def _solve_measure(tracer, a, result):
    tracer.peak("lippmann.grid_nodes", a["grid"].size)


def _ktilde_measure(tracer, a, result):
    tracer.peak("greens.schatten_grid.points", result.matrix.shape[0])


def _angular_measure(tracer, a, result):
    tracer.peak("specfun.angular_grid.max_nodes", result.size)


def probes():
    """(span name, owner, attribute, options) for every wrapped layer function.

    ``key`` maps the bound arguments to a work-item key (distinct keys give
    ``unique_frac``); ``measure`` records counters from arguments and
    result; ``outermost`` records only the outermost of nested calls.
    """
    from multiscat import cli, greens, lippmann, multiscatter, potentials, radial, specfun
    engine = multiscatter.ScenarioEngine
    return [
        ("cli.validate_config", cli, "validate_config", {}),
        ("cli.run", cli, "run", {}),
        ("multiscatter.verify", engine, "verify", {}),
        ("multiscatter.x_alpha", engine, "x_alpha",
         {"key": lambda a: (a["alpha"], a["eps"], tuple(a["pair"]))}),
        ("multiscatter.offshell", engine, "offshell", {}),
        ("multiscatter.x0_structconst", engine, "x0_structconst", {}),
        ("multiscatter.born_term", engine, "born_term", {}),
        ("multiscatter.eps_extrapolate", multiscatter, "eps_extrapolate", {}),
        ("lippmann.solve", lippmann, "solve_offshell_t",
         {"key": lambda a: (a["pot"], a["l"], a["z"].k0, a["z"].eps),
          "measure": _solve_measure}),
        ("lippmann.vl_matrix", lippmann, "vl_matrix", {"key": _vl_key}),
        # phase_shift calls itself twice for its Richardson step
        ("radial.phase_shift", radial, "phase_shift", {"outermost": True}),
        ("greens.structure_constants", greens, "structure_constants", {}),
        ("greens.schatten_spectral", greens, "schatten4_norm_spectral", {}),
        ("greens.decay_diagnostic", greens, "schatten4_decay_diagnostic", {}),
        ("greens.ktilde_build", greens.KtildeDiscretization, "build",
         {"measure": _ktilde_measure}),
        ("greens.schatten_grid", greens, "schatten4_norm", {}),
        ("specfun.angular_grid", specfun.AngularGrid, "for_degree",
         {"measure": _angular_measure}),
        ("specfun.ylm_table", specfun, "ylm_table", {}),
        ("potentials.rollnik_check", potentials, "rollnik_check", {}),
    ]


def _wrap(tracer, name, fn, key=None, measure=None, outermost=False):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        if outermost and tracer.current == name:
            tracer.overhead_s += time.perf_counter() - t0
            return fn(*args, **kwargs)
        bound = None
        if key is not None or measure is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
        if key is not None:
            tracer.keys.setdefault(name, set()).add(key(bound))
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if measure is not None:
            measure(tracer, bound, result)
        span = tracer.spans[index]
        tracer.overhead_s += time.perf_counter() - t0 - (span[2] - span[1])
        return result

    return wrapper


def _counting_solve(tracer, solve):
    """np.linalg.solve that books its size against an open lippmann.solve span."""

    @functools.wraps(solve)
    def wrapper(a, b):
        t0 = time.perf_counter()
        if tracer.current == "lippmann.solve":
            n = a.shape[0]
            cols = b.shape[1] if b.ndim == 2 else 1
            scale = 4.0 if np.iscomplexobj(a) or np.iscomplexobj(b) else 1.0
            # LAPACK counts: LU (2/3) n^3, triangular solves 2 n^2 per column;
            # complex arithmetic costs four real flops per real one
            tracer.add("lippmann.solve.rhs_cols", cols)
            tracer.add("lippmann.solve.flop",
                       scale * (2.0 / 3.0 * n ** 3 + 2.0 * n * n * cols))
        tracer.overhead_s += time.perf_counter() - t0
        return solve(a, b)

    return wrapper


def lookup_sites(original) -> list:
    """Every (module, name) in a loaded multiscat module bound to ``original``."""
    return [(mod, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "multiscat" or mod_name.startswith("multiscat."))
            for attr, value in list(vars(mod).items()) if value is original]


def _patch(make_wrapper) -> list:
    """Replace every probe by ``make_wrapper(name, fn, options)``; returns the undo list."""
    undo = []
    for name, owner, attr, opts in probes():
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(name, raw.__func__, opts))
            sites = [(owner, attr)]
        elif isinstance(owner, type):
            wrapped = make_wrapper(name, raw, opts)
            sites = [(owner, attr)]
        else:
            wrapped = make_wrapper(name, raw, opts)
            sites = lookup_sites(raw)
        for site, site_attr in sites:
            undo.append((site, site_attr, raw))
            setattr(site, site_attr, wrapped)
    return undo


def install(tracer: Tracer) -> list:
    """Patch every probe; returns the (owner, attribute, original) undo list."""
    undo = _patch(lambda name, fn, opts: _wrap(tracer, name, fn, **opts))
    undo.append((np.linalg, "solve", np.linalg.solve))
    np.linalg.solve = _counting_solve(tracer, np.linalg.solve)
    return undo


# numpy calls that split the long stretches between probes (the Born-3
# projections) into shorter steps; they are called a few dozen times a run
MARKED_NUMPY = ("einsum", "outer")


def _mark(marks, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        marks.append((name, time.perf_counter()))
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(("/" + name, time.perf_counter()))

    return wrapper


def install_marks(marks: list) -> list:
    """Step boundaries for the timed samples; returns the undo list.

    Appends ``(name, time)`` to ``marks`` on entry to and ``("/" + name,
    time)`` on exit from every probe and every ``MARKED_NUMPY`` function,
    and does nothing else, so it costs two clock reads a call.
    """
    undo = _patch(lambda name, fn, opts: _mark(marks, name, fn))
    for attr in MARKED_NUMPY:
        undo.append((np, attr, getattr(np, attr)))
        setattr(np, attr, _mark(marks, f"numpy.{attr}", getattr(np, attr)))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, run_s: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced run.

    Ratios over zero calls are reported as 0.
    """
    agg = tracer.summary()

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def unique_frac(name):
        return len(tracer.keys.get(name, ())) / calls(name) if calls(name) else 0.0

    offshell = calls("multiscatter.offshell")
    misses = tracer.child_count("lippmann.solve", "multiscatter.offshell")
    m = {
        "cli.validate_config.s": self_s("cli.validate_config"),
        # run minus verify: the plotdata lmax sweep of x0_structconst is
        # artifact work, though its spans also count in that layer's metrics
        "cli.artifacts.s": tracer.duration("cli.run") - tracer.duration("multiscatter.verify"),
        "cli.artifact_bytes": artifact_bytes,
        "multiscatter.offshell.calls": offshell,
        "multiscatter.offshell.hit_frac": (offshell - misses) / offshell if offshell else 0.0,
        "multiscatter.x0_structconst.calls": calls("multiscatter.x0_structconst"),
        "multiscatter.x0_structconst.self_s": self_s("multiscatter.x0_structconst"),
        "multiscatter.born_term.self_s": self_s("multiscatter.born_term"),
        "multiscatter.eps_extrapolate.calls": calls("multiscatter.eps_extrapolate"),
        "multiscatter.verify.self_s": self_s("multiscatter.verify"),
        "lippmann.solve.rhs_cols": tracer.counters.get("lippmann.solve.rhs_cols", 0),
        "lippmann.solve.gflop": tracer.counters.get("lippmann.solve.flop", 0.0) / 1e9,
        "lippmann.grid_nodes": tracer.peaks.get("lippmann.grid_nodes", 0),
        "greens.decay_diagnostic.s": self_s("greens.decay_diagnostic"),
        "greens.ktilde_build.s": self_s("greens.ktilde_build"),
        "greens.schatten_grid.s": self_s("greens.schatten_grid"),
        "greens.schatten_grid.points": tracer.peaks.get("greens.schatten_grid.points", 0),
        "specfun.angular_grid.max_nodes": tracer.peaks.get("specfun.angular_grid.max_nodes", 0),
        "potentials.rollnik_check.s": self_s("potentials.rollnik_check"),
        "trace.run_s": run_s,
        "trace.overhead_s": tracer.overhead_s,
    }
    for span, fields in (("multiscatter.x_alpha", ("calls", "self_s", "unique_frac")),
                         ("lippmann.solve", ("calls", "self_s", "unique_frac")),
                         ("lippmann.vl_matrix", ("calls", "s", "unique_frac")),
                         ("radial.phase_shift", ("calls", "s")),
                         ("greens.structure_constants", ("calls", "s")),
                         ("greens.schatten_spectral", ("calls", "s")),
                         ("specfun.angular_grid", ("calls", "s")),
                         ("specfun.ylm_table", ("calls", "s"))):
        for f in fields:
            m[f"{span}.{f}"] = (calls(span) if f == "calls" else
                                unique_frac(span) if f == "unique_frac" else self_s(span))
    return m
