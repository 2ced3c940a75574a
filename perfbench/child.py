"""One cold sample of `multiscat run`, in the interpreter that runs this file.

    python3 perfbench/child.py --config CFG.yaml --result OUT.json [--trace]
    python3 perfbench/child.py --config CFG.yaml --result OUT.json --setup-only
    python3 perfbench/child.py --env --result OUT.json

Imports multiscat from this checkout's ``src/``, validates the config, runs
``multiscat.cli.run`` on it and writes the timings, the peak resident memory
and the physics values of ``report.json`` to OUT.json.  The exit status is
that of ``cli.run``.  With ``--trace`` the layer functions are wrapped by
``tracer.install`` first and the per-layer metrics are written as well;
without it ``tracer.install_marks`` records the clock at the same functions
and the step boundaries of the run are written (``steps``).
With ``--setup-only`` it stops after validating and writes only ``setup_s``.
With ``--env`` it only imports the package and records the software and
hardware it runs on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _physics(report: dict) -> dict:
    """The values the benchmark checks against its reference."""
    return {
        "passed": report.get("passed"),
        "x0_direct": report.get("x0_direct"),
        "x0_structconst": report.get("x0_structconst"),
        "born_terms": report.get("born_terms"),
        "schatten": report.get("schatten", {}).get("value"),
        "comparisons": {c["name"]: {"value": c["value"], "tolerance": c["tolerance"]}
                        for c in report.get("comparisons", [])},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import multiscat.cli as cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported multiscat from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    if args.env:
        args.result.write_text(json.dumps(_environment()))
        return 0

    tracer = marks = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    elif not args.setup_only:
        from tracer import install_marks
        marks = []
        install_marks(marks)

    text = args.config.read_text()
    t1 = time.perf_counter()
    config = cli.validate_config(text)
    t2 = time.perf_counter()
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": import_s + (t2 - t1)}))
        return 0
    if marks is not None:
        marks.clear()  # keep the steps of cli.run only
    rc = cli.run(config)
    run_s = time.perf_counter() - t2

    out = config.output_dir
    result = {
        "exit": rc,
        "setup_s": import_s + (t2 - t1),
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "report": _physics(json.loads((out / "report.json").read_text())),
    }
    if marks is not None:
        names = "\n".join(name for name, _ in marks)
        result["steps"] = {
            # the same sequence of probe calls gives the same key
            "key": hashlib.sha1(names.encode()).hexdigest(),
            "bounds": [0.0] + [t - t2 for _, t in marks] + [run_s],
        }
    if tracer is not None:
        from tracer import layer_metrics
        artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        result["layers"] = layer_metrics(tracer, run_s, artifact_bytes)
        result["spans"] = tracer.spans
    args.result.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
