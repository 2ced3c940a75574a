#!/usr/bin/env python3
"""Cold-run benchmark of `multiscat run` on three bundled experiments.

    python3 perfbench/run.py --workload wells_born3 --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  Every sample is a fresh interpreter
(``child.py``), so the package's process-wide ``lru_cache``s start empty as
they do for a user, with the BLAS/OpenMP thread counts pinned to 1.  Samples
run one at a time (a closed loop with one client) while a typical sample
still ends within ``--seconds``, and at least ``MIN_SAMPLES`` of them.
Every sample's physics is checked against ``reference.json``, which holds
the ``report`` values ``child.py`` wrote for seed 0 of each workload at the
seed commit; a change meant to alter the physics edits that file visibly.
``run_s`` is the run time with each step at its fastest over the samples
(``fastest_steps_s``); the samples' plain wall-time median and quartiles
are printed as ``run_wall_s``.  ``setup_s`` is the median set-up time of
the timed samples pooled with that of extra children that only import the
package and validate the config, run after the timed samples until there
are ``SETUP_SAMPLES`` set-up times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracer.py`` with
``--trace 1``.  The line before it holds the sample details (quartiles,
sample counts, per-sample values) and the hardware and software versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# workload -> (bundled config, numerics overrides)
WORKLOADS = {
    "wells": ("nonoverlap_wells.yaml", {}),
    "gaussians": ("overlap_gaussians.yaml", {}),
    "wells_born3": ("nonoverlap_wells.yaml", {"n_max": 3}),
}
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
MIN_SAMPLES = 5
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
# relative tolerance of every checked value against the reference; a gate
# residual is measured against max(|reference|, gate tolerance)
REL_TOL = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rotate(v, axis, angle):
    """Rodrigues rotation of ``v`` about the unit vector ``axis``."""
    c, s = math.cos(angle), math.sin(angle)
    dot = sum(a * b for a, b in zip(axis, v))
    cross = (axis[1] * v[2] - axis[2] * v[1],
             axis[2] * v[0] - axis[0] * v[2],
             axis[0] * v[1] - axis[1] * v[0])
    return [v[i] * c + cross[i] * s + axis[i] * dot * (1.0 - c) for i in range(3)]


def make_config(workload: str, seed: int, out_dir: Path) -> str:
    """YAML text of the workload's config for ``seed``, writing to ``out_dir``.

    Seed 0 is the bundled geometry.  Other seeds rotate ``dir_out`` about
    ``dir_in`` by an angle drawn from [0, 2 pi); the grids, p_max, lmax and
    angular degrees do not depend on ``dir_out``, so the work is the same.
    """
    name, overrides = WORKLOADS[workload]
    raw = yaml.safe_load((ROOT / "configs" / name).read_text())
    raw.setdefault("numerics", {}).update(overrides)
    raw.setdefault("output", {})["dir"] = str(out_dir)
    if seed != 0:
        sc = raw["scenario"]
        axis = [float(x) for x in sc.get("dir_in", [0.0, 0.0, 1.0])]
        norm = math.sqrt(sum(x * x for x in axis))
        angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        sc["dir_out"] = _rotate([float(x) for x in sc["dir_out"]],
                                [x / norm for x in axis], angle)
    return yaml.safe_dump(raw, sort_keys=False)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    # import from cached bytecode, as a user's repeated runs do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(work: Path, tag: str, extra: list) -> tuple[int, dict | None, str]:
    """Run child.py once; returns (exit status, its result or None, stderr tail)."""
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result), *extra]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, None, f"timed out after {CHILD_TIMEOUT_S} s"
    data = json.loads(result.read_text()) if result.is_file() else None
    return proc.returncode, data, proc.stderr[-2000:]


def _rel(value, ref, scale=None) -> float:
    if isinstance(ref, list):
        value, ref = complex(*value), complex(*ref)
    return abs(value - ref) / max(abs(ref) if scale is None else scale, 1e-300)


def check_physics(got: dict, ref: dict) -> list:
    """Differences of one sample's values from the reference, as messages."""
    bad = []
    if got["passed"] is not True:
        bad.append("report.passed is not true")
    for key in ("x0_direct", "x0_structconst", "schatten"):
        if (got[key] is None) != (ref[key] is None):
            bad.append(f"{key}: {got[key]!r}, reference {ref[key]!r}")
        elif ref[key] is not None and _rel(got[key], ref[key]) > REL_TOL:
            bad.append(f"{key}: {got[key]!r}, reference {ref[key]!r}")
    if len(got["born_terms"] or []) != len(ref["born_terms"]):
        bad.append(f"born_terms: {len(got['born_terms'] or [])} terms, "
                   f"reference {len(ref['born_terms'])}")
    else:
        for n, (g, r) in enumerate(zip(got["born_terms"], ref["born_terms"]), 1):
            if _rel(g, r) > REL_TOL:
                bad.append(f"born term {n}: {g!r}, reference {r!r}")
    if set(got["comparisons"]) != set(ref["comparisons"]):
        bad.append(f"comparisons {sorted(got['comparisons'])}, "
                   f"reference {sorted(ref['comparisons'])}")
    else:
        for name, r in ref["comparisons"].items():
            scale = max(abs(r["value"]), r["tolerance"])
            if _rel(got["comparisons"][name]["value"], r["value"], scale) > REL_TOL:
                bad.append(f"comparison {name}: {got['comparisons'][name]['value']!r}, "
                           f"reference {r['value']!r}")
    return bad


def fastest_steps_s(timed: list) -> tuple[float, int]:
    """Run time with each step at its fastest: (seconds, samples used).

    A step is the stretch between two consecutive boundaries that
    ``tracer.install_marks`` recorded (entry to or exit from a probed call).
    Samples that made the same sequence of probe calls share their steps;
    the largest such group is used, and each step contributes its shortest
    duration in that group.  On a shared host whose speed changes from
    second to second this keeps the run's own work and drops most of the
    time lost to other tenants, which a median over whole runs keeps.
    """
    groups: dict = {}
    for d in timed:
        groups.setdefault(d["steps"]["key"], []).append(d["steps"]["bounds"])
    group = max(groups.values(), key=len)
    steps = zip(*[[b - a for a, b in zip(bounds, bounds[1:])] for bounds in group])
    return sum(min(step) for step in steps), len(group)


def _stats(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config_name = WORKLOADS[args.workload][0]
    missing = [p for p in (ROOT / "src" / "multiscat" / "__init__.py",
                           ROOT / "configs" / config_name) if not p.is_file()]
    if missing:
        print(f"not a multiscat checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        work = Path(tmp)
        # untimed import: fails early on a broken checkout and leaves the
        # bytecode cache a user's repeated runs would have
        rc, env_info, err = run_child(work, "env", ["--env"])
        if rc != 0 or env_info is None:
            print(f"cannot import multiscat from this checkout:\n{err}", file=sys.stderr)
            return 2

        ref = json.loads(REFERENCE.read_text())[args.workload]
        samples, durations, setups = [], [], []
        start = time.monotonic()
        while True:
            # the traced mode alternates untraced and traced samples so both
            # run_s figures come from the same stretch of time
            traced = bool(args.trace) and len(samples) % 2 == 1
            i = len(samples)
            cfg = work / f"s{i}.yaml"
            cfg.write_text(make_config(args.workload, args.seed, work / f"s{i}_out"))
            t = time.monotonic()
            rc, data, err = run_child(work, f"s{i}",
                                      ["--config", str(cfg)] + (["--trace"] if traced else []))
            durations.append(time.monotonic() - t)
            problems = [] if data is not None else [f"no result (exit {rc}): {err}"]
            if data is not None:
                if rc != 0:
                    problems.append(f"exit status {rc}")
                problems += check_physics(data["report"], ref)
            for p in problems:
                print(f"sample {i}: {p}", file=sys.stderr)
            samples.append({"traced": traced, "ok": not problems, "data": data})
            plain = [s for s in samples if not s["traced"]]
            enough = len(plain) >= MIN_SAMPLES if not args.trace else (
                len(plain) >= 1 and len(samples) - len(plain) >= 1)
            # start another sample only if a typical one ends within the window
            if enough and (time.monotonic() - start + statistics.median(durations)
                           > args.seconds):
                break
        # set-up-only children after the timed samples, so they take no
        # samples from the window, until setup_s rests on SETUP_SAMPLES samples
        n_timed = sum(s["data"] is not None for s in samples if not s["traced"])
        for i in range(0 if args.trace else SETUP_SAMPLES - n_timed):
            cfg = work / f"setup{i}.yaml"
            cfg.write_text(make_config(args.workload, args.seed, work / f"setup{i}_out"))
            rc, data, err = run_child(work, f"setup{i}", ["--config", str(cfg), "--setup-only"])
            if rc != 0 or data is None:
                print(f"set-up sample {i} failed (exit {rc}):\n{err}", file=sys.stderr)
                return 1
            setups.append(data["setup_s"])

    failed = sum(not s["ok"] for s in samples)
    timed = [s["data"] for s in samples if s["data"] is not None and not s["traced"]]
    traced = [s["data"] for s in samples if s["data"] is not None and s["traced"]]
    if not timed or (args.trace and not traced):
        print("no sample produced measurements", file=sys.stderr)
        return 1
    details = {"run_wall_s": _stats([d["run_s"] for d in timed]),
               "peak_rss_mb": _stats([d["peak_rss_mb"] for d in timed]),
               "setup_s": _stats(setups + [d["setup_s"] for d in timed])}
    details["run_s"], details["run_s_samples"] = fastest_steps_s(timed)
    if args.trace:
        from tracer import PER_LAYER
        metrics = {name: {"value": statistics.median([d["layers"][name] for d in traced]),
                          "unit": unit} for name, unit in PER_LAYER}
        # traced minus untraced run_s, with both inputs' spreads: on a shared
        # machine this difference is mostly noise; trace.overhead_s is the
        # bookkeeping time measured inside the wrappers
        details["traced_run_s"] = _stats([d["run_s"] for d in traced])
        details["traced_minus_untraced_run_s"] = (details["traced_run_s"]["median"]
                                                  - details["run_wall_s"]["median"])
    else:
        values = {key: details[key]["median"] for key in ("setup_s", "peak_rss_mb")}
        values["run_s"] = details["run_s"]
        values["ok_frac"] = 1.0 - failed / len(samples)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": details, "traced_samples": len(traced),
                      "per_sample_run_s": [d["run_s"] for d in timed],
                      "environment": env_info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
