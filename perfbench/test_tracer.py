"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Checks that every wrapper replaces the name where multiscat looks it up,
that recursive phase-shift calls count once, and, on one traced cold run
of each workload, that the expected spans fire, the expected-zero spans
stay zero and the self times add up to no more than the traced run time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

SPANS = {name for name, *_ in tracer.probes()}
# spans a workload never reaches at the bundled settings
ZERO = {
    "wells": {"greens.ktilde_build", "greens.schatten_grid"},
    "gaussians": {"radial.phase_shift", "greens.structure_constants",
                  "greens.schatten_spectral", "greens.decay_diagnostic",
                  "multiscatter.x0_structconst", "specfun.ylm_table"},
    "wells_born3": {"greens.ktilde_build", "greens.schatten_grid"},
}


def test_install_patches_every_lookup_site():
    import multiscat.cli  # noqa: F401  (loads every module that binds names)

    originals = {name: (owner, attr, vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
                 for name, owner, attr, _ in tracer.probes()}
    undo = tracer.install(tracer.Tracer())
    try:
        for name, (owner, attr, raw) in originals.items():
            assert tracer.lookup_sites(raw) == [], name
            current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not raw, name
        # multiscatter and cli bind these by name at import
        from multiscat import cli, lippmann, multiscatter
        assert multiscatter.solve_offshell_t is lippmann.solve_offshell_t
        assert multiscatter.structure_constants is cli.structure_constants
        assert multiscatter.solve_offshell_t.__wrapped__ is originals["lippmann.solve"][2]
    finally:
        tracer.uninstall(undo)
    for name, (owner, attr, raw) in originals.items():
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is raw, name


def test_phase_shift_counts_outermost_call_only():
    from multiscat import multiscatter
    from multiscat.potentials import square_well

    pot = square_well(-1.0, 1.0)
    plain = multiscatter.phase_shift(pot, 1, 1.0)
    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        traced = multiscatter.phase_shift(pot, 1, 1.0)
    finally:
        tracer.uninstall(undo)
    assert traced == plain
    assert tr.summary()["radial.phase_shift"]["calls"] == 1


def test_marks_bracket_every_probe_call():
    from multiscat import multiscatter
    from multiscat.potentials import square_well

    original = multiscatter.phase_shift
    marks = []
    undo = tracer.install_marks(marks)
    try:
        multiscatter.phase_shift(square_well(-1.0, 1.0), 1, 1.0)
    finally:
        tracer.uninstall(undo)
    assert multiscatter.phase_shift is original
    names = [name for name, _ in marks]
    assert names[0] == "radial.phase_shift" and names[-1] == "/radial.phase_shift"
    assert names.count("radial.phase_shift") == names.count("/radial.phase_shift")
    times = [t for _, t in marks]
    assert times == sorted(times)


def test_fastest_steps_takes_each_step_at_its_fastest():
    a = {"steps": {"key": "k", "bounds": [0.0, 1.0, 3.0]}}
    b = {"steps": {"key": "k", "bounds": [0.0, 2.0, 3.0]}}
    other = {"steps": {"key": "j", "bounds": [0.0, 0.5]}}
    # steps (1, 2) and (2, 1); the lone sample with other calls is left out
    assert run.fastest_steps_s([a, other, b]) == (2.0, 2)


def test_benchmark_json_lists_the_tracer_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.PER_LAYER
    # run.py also runs `wells` by hand; the benchmark's runs use two workloads
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run(workload, tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(run.make_config(workload, 0, tmp_path / "out"))
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--config", str(cfg),
                           "--result", str(result), "--trace"],
                          env=run._child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    ref = json.loads(run.REFERENCE.read_text())[workload]
    assert run.check_physics(data["report"], ref) == []

    spans = data["spans"]
    calls = {name: 0 for name in SPANS}
    for name, *_ in spans:
        calls[name] += 1
    fired = {name for name, n in calls.items() if n}
    assert fired == SPANS - ZERO[workload]

    # spans under cli.run partition its time; validate_config is the other root
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli.validate_config", "cli.run"]
    under_run = sum(s[4] for s in spans[roots[1]:])
    assert all(s[4] >= 0 for s in spans)
    assert under_run <= data["run_s"]

    layers = data["layers"]
    assert set(layers) == {name for name, _ in tracer.PER_LAYER}
    assert 0 < layers["trace.overhead_s"] < data["run_s"]
    # run minus verify covers at least the self time of cli.run
    cli_run_self = sum(s[4] for s in spans if s[0] == "cli.run")
    assert cli_run_self <= layers["cli.artifacts.s"] < data["run_s"]
    for name in ZERO[workload]:
        assert layers.get(f"{name}.s", 0) == 0 and layers.get(f"{name}.calls", 0) == 0
    assert layers["lippmann.solve.rhs_cols"] > 0
    assert layers["multiscatter.offshell.calls"] > layers["lippmann.solve.calls"] > 0
