import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multiscat.cli import ConfigError, RunConfig, main, run, validate_config
from multiscat.multiscatter import Numerics, Scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
  - center: [0.0, 0.0, 5.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
output:
  dir: out/minimal
"""


def test_minimal_config_parses_with_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.scenario.k0 == 1.0
    assert cfg.scenario.numerics.lmax == 8
    assert cfg.scenario.dir_in == (0.0, 0.0, 1.0)
    assert cfg.warnings == []


def test_all_errors_reported_at_once():
    bad = """
scenario:
  k0: -1.0
  dir_in: [0, 0]
scatterers:
  - center: [0.0, 0.0]
    potential: {kind: weird, v0: -1.0, a: 1.0}
tolerances:
  nonsense: 1.0e-3
"""
    with pytest.raises(ConfigError) as exc:
        validate_config(bad)
    paths = [p for p, _ in exc.value.errors]
    assert "scenario.k0" in paths
    assert "scenario.dir_in" in paths
    assert "scatterers[0].center" in paths
    assert "scatterers[0].potential.kind" in paths
    assert "tolerances.nonsense" in paths


def test_non_unit_direction_warns():
    cfg = validate_config(MINIMAL.replace("k0: 1.0",
                                          "k0: 1.0\n  dir_in: [0.0, 0.0, 2.0]"))
    assert any("dir_in" in w for w in cfg.warnings)
    assert cfg.scenario.dir_in == (0.0, 0.0, 1.0)


def test_unknown_numerics_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config(MINIMAL + "numerics:\n  lmx: 2\n  angular_pad: 30\n")
    errors = dict(exc.value.errors)
    assert set(errors) == {"numerics.lmx", "numerics.angular_pad"}
    assert "lmax" in errors["numerics.lmx"]     # the known keys are listed
    with pytest.raises(ConfigError) as exc:
        validate_config(MINIMAL + "numerics: 3\n")
    assert [p for p, _ in exc.value.errors] == ["numerics"]
    # an empty block is still the defaults
    assert validate_config(MINIMAL + "numerics:\n").scenario.numerics.lmax == 8


@pytest.mark.parametrize("eps", ["[0.2, 0.1]", "[0.2, 0.19, 0.1]", "[0.2, 0.1, 0.0]",
                                 "[0.2, 0.1, 0.1]"])
def test_eps_list_that_cannot_extrapolate_rejected(tmp_path, eps):
    text = MINIMAL.replace("k0: 1.0", f"k0: 1.0\n  eps_list: {eps}")
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == ["scenario.eps_list"]
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    # any order is accepted once the sorted values decrease geometrically
    ok = MINIMAL.replace("k0: 1.0", "k0: 1.0\n  eps_list: [0.05, 0.2, 0.1]")
    assert validate_config(ok).scenario.eps_sequence() == (0.05, 0.2, 0.1)


@pytest.mark.parametrize("p_max", ["1.5", "2.0"])
def test_p_max_at_or_below_two_k0_rejected(tmp_path, p_max):
    text = MINIMAL + f"numerics:\n  p_max: {p_max}\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == ["numerics.p_max"]
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p)]) == 2
    assert validate_config(MINIMAL + "numerics:\n  p_max: 2.5\n").scenario.numerics.p_max == 2.5


def test_engine_construction_error_writes_error_report(tmp_path):
    # a scenario that validate_config would refuse, built by hand: the
    # engine's constructor raises, and run reports it like any run failure
    good = validate_config(MINIMAL).scenario
    bad = Scenario(scatterers=good.scatterers, k0=1.0, numerics=Numerics(p_max=1.5))
    assert run(RunConfig(scenario=bad, output_dir=tmp_path / "out")) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error_type"] == "ValueError"
    assert "p_max" in report["error"]


def test_null_tolerances_are_the_defaults():
    cfg = validate_config(MINIMAL + "tolerances:\n")
    assert cfg.scenario.numerics.tolerances == Numerics().tolerances
    with pytest.raises(ConfigError) as exc:
        validate_config(MINIMAL + "tolerances: 3\n")
    assert [p for p, _ in exc.value.errors] == ["tolerances"]


def test_threads_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "run", "config.yaml"])
    assert exc.value.code == 2


def test_validate_subcommand(tmp_path, capsys):
    p = tmp_path / "c.yaml"
    p.write_text(MINIMAL)
    assert main(["validate", str(p)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_validate_subcommand_bad_config(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("scenario:\n  k0: -3\nscatterers: []\n")
    assert main(["validate", str(p)]) == 2


def test_missing_config_file():
    assert main(["run", "/nonexistent/file.yaml"]) == 2


def test_structconst_export(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["structconst", "--k0", "1.0", "--r", "3.0",
                 "--lmax", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "l,m,lp,mp,re_g,im_g"
    assert len(lines) == 1 + 81   # (lmax+1)^4 entries


def test_structconst_overflow_is_an_input_error(tmp_path, caplog):
    # h+_L(0.1) overflows at L = 107 < 2 lmax: report it, write nothing
    out = tmp_path / "g.csv"
    assert main(["structconst", "--k0", "0.1", "--r", "1.0",
                 "--lmax", "60", "--out", str(out)]) == 2
    assert not out.exists()
    assert any("overflow" in r.getMessage() for r in caplog.records)


def test_more_than_two_scatterers_warns(tmp_path, capsys):
    text = f"""
scenario:
  k0: 1.0
  alpha_list: [0.0, 0.5]
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {{kind: gaussian, v0: -1.0, a: 1.0}}
  - center: [0.0, 0.0, 1.0]
    potential: {{kind: gaussian, v0: -1.0, a: 1.0}}
  - center: [0.0, 1.0, 0.0]
    potential: {{kind: gaussian, v0: -1.0, a: 1.0}}
numerics: {{lmax: 2, schatten_radial: 4, schatten_order: 2}}
output:
  dir: {tmp_path / "three"}
"""
    warnings = validate_config(text).warnings
    assert len(warnings) == 1 and "3 scatterers" in warnings[0]
    assert "scatterers[0], scatterers[1]" in warnings[0]
    p = tmp_path / "three.yaml"
    p.write_text(text)
    assert main(["run", str(p)]) == 0
    assert "warning: 3 scatterers" in capsys.readouterr().err
    report = json.loads((tmp_path / "three" / "report.json").read_text())
    assert report["config_warnings"] == warnings


def _small_config(tmp_path, name, extra=""):
    text = f"""
scenario:
  k0: 1.0
  dir_in: [0.0, 0.0, 1.0]
  dir_out: [0.8660254037844386, 0.0, 0.5]
  alpha_list: [0.0, 0.5, 1.0]
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {{kind: gaussian, v0: -1.0, a: 1.0}}
  - center: [0.0, 0.0, 1.0]
    potential: {{kind: gaussian, v0: -1.0, a: 1.0}}
numerics:
  lmax: 4
  schatten_radial: 8
  schatten_order: 6
{extra}
output:
  dir: {tmp_path / name}
"""
    p = tmp_path / f"{name}.yaml"
    p.write_text(text)
    return p


def test_run_writes_artifacts_and_passes(tmp_path):
    cfg = _small_config(tmp_path, "ok")
    assert main(["run", str(cfg)]) == 0
    outdir = tmp_path / "ok"
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True
    assert (outdir / "summary.csv").exists()
    assert (outdir / "plotdata" / "y_alpha.csv").exists()
    assert (outdir / "plotdata" / "x0_vs_eps.csv").exists()


def test_run_determinism_byte_identical(tmp_path):
    cfg = _small_config(tmp_path, "det")
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "det" / "summary.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    second = (tmp_path / "det" / "summary.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("name", ["nonoverlap_wells", "overlap_gaussians"])
def test_run_imports_no_scipy(tmp_path, name):
    # a fresh interpreter: the test session itself has loaded scipy oracles
    text = (CONFIG_DIR / f"{name}.yaml").read_text().replace(
        f"dir: out/{name}", f"dir: {tmp_path / 'out'}")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    code = ("import json, sys\n"
            "from multiscat.cli import main\n"
            f"rc = main(['run', {str(cfg)!r}])\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules\n"
            "                             if m == 'scipy' or m.startswith('scipy.'))]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rc, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert scipy_modules == []


@pytest.mark.parametrize("name", ["nonoverlap_wells", "overlap_gaussians"])
def test_run_needs_no_eigendecomposition(tmp_path, monkeypatch, name):
    # the LS t-matrices come from solves in the rank of V_l; only the
    # eigenvalues of the grid Hamiltonian are computed
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    text = (CONFIG_DIR / f"{name}.yaml").read_text().replace(
        f"dir: out/{name}", f"dir: {tmp_path / 'out'}")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True


def test_run_tail_failure_gives_partial_artifacts(tmp_path):
    # p_max barely above the 2*k0 panel edge: the momentum tail estimate
    # must trip and the run must fail loudly with a partial report
    cfg = _small_config(tmp_path, "fail", extra="  p_max: 2.5\n  tail_tol: 1.0e-6\n")
    assert main(["run", str(cfg)]) == 1
    report = json.loads((tmp_path / "fail" / "report.json").read_text())
    assert "error" in report


def test_bundled_configs_validate():
    for name in ("nonoverlap_wells.yaml", "overlap_gaussians.yaml"):
        cfg = validate_config((CONFIG_DIR / name).read_text())
        assert cfg.scenario.k0 == 1.0
        assert cfg.warnings == []
