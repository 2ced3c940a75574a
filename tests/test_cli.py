import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from multiscat.cli import ConfigError, RunConfig, main, run, validate_config
from multiscat.greens import structure_constants
from multiscat.multiscatter import Numerics, Scenario
from multiscat.specfun import sph_index

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


def test_every_bad_potential_parameter_reported():
    # a bad v0 does not hide a bad a or rc of the same potential
    bad = MINIMAL.replace("{kind: square_well, v0: -1.0, a: 1.0}\n  - center",
                          "{kind: truncated_coulomb, v0: true, a: -1.0, rc: 0}\n  - center")
    assert "truncated_coulomb" in bad
    with pytest.raises(ConfigError) as exc:
        validate_config(bad)
    assert [p for p, _ in exc.value.errors] == [
        "scatterers[0].potential.v0", "scatterers[0].potential.a",
        "scatterers[0].potential.rc"]


def test_non_unit_direction_warns():
    cfg = validate_config(MINIMAL.replace("k0: 1.0",
                                          "k0: 1.0\n  dir_in: [0.0, 0.0, 2.0]"))
    assert any("dir_in" in w for w in cfg.warnings)
    assert cfg.scenario.dir_in == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("direction, unit", [
    ("[1.0e-200, 0, 0]", (1.0, 0.0, 0.0)),
    ("[1.0e+200, 0, 0]", (1.0, 0.0, 0.0)),
    ("[0, 0, 0]", None),
    ("[.nan, 0, 1]", None),
    ("[.inf, 0, 0]", None),
], ids=["tiny", "huge", "zero", "nan", "inf"])
def test_direction_of_extreme_length(direction, unit):
    # the config reads a direction's length as Scenario does: |v|^2
    # underflows at 1e-200 and overflows at 1e+200, but both lengths are
    # finite and nonzero, so the direction is normalised with one warning
    text = MINIMAL.replace("k0: 1.0", f"k0: 1.0\n  dir_in: {direction}")
    if unit is None:
        with pytest.raises(ConfigError) as exc:
            validate_config(text)
        assert [p for p, _ in exc.value.errors] == ["scenario.dir_in"]
    else:
        cfg = validate_config(text)
        assert len(cfg.warnings) == 1 and "not unit length" in cfg.warnings[0]
        assert cfg.scenario.dir_in == unit


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


SECOND = "potential: {kind: square_well, v0: -1.0, a: 1.0}\noutput"


@pytest.mark.parametrize("old,new,path", [
    # scenario numbers
    ("k0: 1.0", "k0: true", "scenario.k0"),
    ("k0: 1.0", "k0: .inf", "scenario.k0"),
    pytest.param("k0: 1.0", f"k0: {10 ** 400}", "scenario.k0", id="int_beyond_float"),
    # vector components
    ("k0: 1.0", "k0: 1.0\n  dir_in: [0.0, false, 1.0]", "scenario.dir_in"),
    ("[0.0, 0.0, 5.0]", "[0.0, 0.0, true]", "scatterers[1].center"),
    # list entries
    ("k0: 1.0", "k0: 1.0\n  eps_list: [0.2, true, 0.05]", "scenario.eps_list"),
    ("k0: 1.0", "k0: 1.0\n  alpha_list: [0.0, true]", "scenario.alpha_list"),
    # potential parameters
    (SECOND, "potential: {kind: square_well, v0: true, a: 1.0}\noutput",
     "scatterers[1].potential.v0"),
    (SECOND, "potential: {kind: square_well, v0: -1.0, a: true}\noutput",
     "scatterers[1].potential.a"),
    (SECOND, "potential: {kind: truncated_coulomb, v0: -1.0, a: 1.0, rc: true}\noutput",
     "scatterers[1].potential.rc"),
    # integer numerics keys
    ("output:", "numerics:\n  lmax: 8.5\noutput:", "numerics.lmax"),
    ("output:", "numerics:\n  lmax: true\noutput:", "numerics.lmax"),
    ("output:", "numerics:\n  n_max: 2.5\noutput:", "numerics.n_max"),
    # float numerics keys
    ("output:", "numerics:\n  p_max: true\noutput:", "numerics.p_max"),
    ("output:", "numerics:\n  tail_tol: true\noutput:", "numerics.tail_tol"),
    # tolerances
    ("output:", "tolerances:\n  phase_law: true\noutput:", "tolerances.phase_law"),
    # values of the right type that the run cannot use
    ("k0: 1.0", "k0: 1.0\n  dir_in: [0.0, 0.0, 0.0]", "scenario.dir_in"),
    (SECOND, "potential: 3\noutput", "scatterers[1].potential"),
    ("output:", "numerics: {lmax: 31}\noutput:", "numerics.lmax"),
    ("output:", "numerics: {lmax: -1}\noutput:", "numerics.lmax"),
    ("output:", "numerics: {n_inner: 7}\noutput:", "numerics.n_inner"),
    ("output:", "numerics: {n_mid: 513}\noutput:", "numerics.n_mid"),
    ("output:", "numerics: {n_max: 0}\noutput:", "numerics.n_max"),
    ("output:", "numerics: {n_max: 4}\noutput:", "numerics.n_max"),
    ("output:", "numerics: {tail_tol: 0}\noutput:", "numerics.tail_tol"),
    ("output:", "numerics: {p_max: 0}\noutput:", "numerics.p_max"),
    ("dir: out/minimal", "dir: 5", "output.dir"),
])
def test_booleans_and_non_integral_values_rejected(old, new, path):
    text = MINIMAL.replace(old, new, 1)
    assert text != MINIMAL
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == [path]


@pytest.mark.parametrize("text", ["scenario: [k0: 1.0\n", "- k0: 1.0\n"],
                         ids=["not_yaml", "not_a_mapping"])
def test_file_that_is_not_a_config_rejected(tmp_path, text):
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == ["<file>"]
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2


@pytest.mark.parametrize("old,new,path", [
    ("output:", "numeric:\n  lmax: 2\noutput:", "numeric"),
    ("k0: 1.0", "k0: 1.0\n  dirout: [1.0, 0.0, 0.0]", "scenario.dirout"),
    ("[0.0, 0.0, 5.0]", "[0.0, 0.0, 5.0]\n    radius: 1.0", "scatterers[1].radius"),
    (SECOND, "potential: {kind: square_well, v0: -1.0, a: 1.0, depth: 2.0}\noutput",
     "scatterers[1].potential.depth"),
    # only a truncated Coulomb potential reads rc
    (SECOND, "potential: {kind: square_well, v0: -1.0, a: 1.0, rc: 3}\noutput",
     "scatterers[1].potential.rc"),
    (SECOND, "potential: {kind: square_well, v0: -1.0, a: 1.0, rc: x}\noutput",
     "scatterers[1].potential.rc"),
    # knobs that are gone
    ("dir: out/minimal", "dir: out/minimal\n  formats: [json, csv, plotdata]",
     "output.formats"),
    ("output:", "numerics:\n  n_outer: 128\noutput:", "numerics.n_outer"),
    ("output:", "numerics:\n  schatten_radial: 12\noutput:", "numerics.schatten_radial"),
    ("output:", "numerics:\n  schatten_order: 9\noutput:", "numerics.schatten_order"),
])
def test_unknown_keys_rejected_at_their_path(tmp_path, capsys, old, new, path):
    text = MINIMAL.replace(old, new, 1)
    assert text != MINIMAL
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == [path]
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert f"  {path}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,path", [
    # one alpha: alpha_flatness and y_average read 0 and phase_law is dropped
    ("k0: 1.0", "k0: 1.0\n  alpha_list: [0.0]", "scenario.alpha_list"),
    ("k0: 1.0", "k0: 1.0\n  alpha_list: [1.0]", "scenario.alpha_list"),
    ("k0: 1.0", "k0: 1.0\n  alpha_list: [0.5, 0.5]", "scenario.alpha_list"),
    # e^{i alpha sqrt z} continues to the real axis only for alpha >= 0
    ("k0: 1.0", "k0: 1.0\n  alpha_list: [0, -2, -4, -6]", "scenario.alpha_list"),
    # a zero potential makes X_0 vanish, and every alpha gate divides by it
    (SECOND, "potential: {kind: square_well, v0: 0.0, a: 1.0}\noutput",
     "scatterers[1].potential.v0"),
    (SECOND, "potential: {kind: gaussian, v0: 0, a: 1.0}\noutput",
     "scatterers[1].potential.v0"),
])
def test_gates_that_cannot_fail_rejected(tmp_path, old, new, path):
    text = MINIMAL.replace(old, new, 1)
    assert text != MINIMAL
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert [p for p, _ in exc.value.errors] == [path]
    p = tmp_path / "c.yaml"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    # two alphas, one of them nonzero, are enough
    ok = MINIMAL.replace("k0: 1.0", "k0: 1.0\n  alpha_list: [0.0, 0.5]")
    assert validate_config(ok).scenario.numerics.alpha_list == (0.0, 0.5)


def test_integral_float_is_an_integer():
    cfg = validate_config(MINIMAL.replace("output:", "numerics:\n  lmax: 6.0\noutput:"))
    assert cfg.scenario.numerics.lmax == 6 and isinstance(cfg.scenario.numerics.lmax, int)


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
    # a null numerics field or tolerance keeps its default too
    cfg = validate_config(MINIMAL + "numerics: {lmax: null, n_max: 3}\n")
    assert cfg.scenario.numerics.lmax == Numerics().lmax and cfg.scenario.numerics.n_max == 3
    cfg = validate_config(MINIMAL + "tolerances: {phase_law: null, y_average: 0.5}\n")
    assert cfg.scenario.numerics.tolerances == {**Numerics().tolerances, "y_average": 0.5}
    with pytest.raises(ConfigError) as exc:
        validate_config(MINIMAL + "tolerances: 3\n")
    assert [p for p, _ in exc.value.errors] == ["tolerances"]
    # so do null directions and a null output dir
    cfg = validate_config(MINIMAL.replace("k0: 1.0", "k0: 1.0\n  dir_in: null\n  dir_out:")
                          .replace("dir: out/minimal", "dir: null"))
    assert cfg.scenario.dir_in == cfg.scenario.dir_out == (0.0, 0.0, 1.0)
    assert cfg.output_dir == Path("out") and cfg.warnings == []


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
    # three components along z are the one-value form
    out3 = tmp_path / "g3.csv"
    assert main(["structconst", "--k0", "1.0", "--r", "0", "0", "3",
                 "--lmax", "2", "--out", str(out3)]) == 0
    assert out3.read_bytes() == out.read_bytes()
    # two components are neither form
    out2 = tmp_path / "g2.csv"
    assert main(["structconst", "--k0", "1.0", "--r", "1", "2",
                 "--lmax", "2", "--out", str(out2)]) == 2
    assert not out2.exists()


def test_structconst_csv_roundtrip(tmp_path):
    # the CSV holds every entry of the matrix, in sph_index order on both
    # sides, with .16e real and imaginary parts
    g = structure_constants(1.0, [1.0, 0.5, 3.0], 3)
    path = tmp_path / "g.csv"
    assert main(["structconst", "--k0", "1", "--r", "1", "0.5", "3",
                 "--lmax", "3", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "l,m,lp,mp,re_g,im_g"
    assert re.fullmatch(r"0,0,0,0(,-?\d\.\d{16}e[+-]\d{2}){2}", lines[1])
    assert lines[1] == f"0,0,0,0,{g[0, 0].real:.16e},{g[0, 0].imag:.16e}"
    back = np.zeros_like(g)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for l, m, lp, mp, re_g, im_g in rows[1:]:
        back[sph_index(int(l), int(m)), sph_index(int(lp), int(mp))] = (
            float(re_g) + 1j * float(im_g))
    assert len(rows) == 1 + g.size
    assert np.max(np.abs(g - back)) < 1e-15 * np.max(np.abs(g))
    # the rows of a nested loop over (l, m), then (l', m'), string for string
    want = [[str(l), str(m), str(lp), str(mp), f"{v.real:.16e}", f"{v.imag:.16e}"]
            for l in range(4) for m in range(-l, l + 1)
            for lp in range(4) for mp in range(-lp, lp + 1)
            for v in [g[sph_index(l, m), sph_index(lp, mp)]]]
    assert rows[1:] == want


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
numerics: {{lmax: 2}}
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


def test_report_echoes_every_numerics_field(tmp_path):
    # one scatterer: the cheapest run that writes report.json
    one = MINIMAL.split("  - center: [0.0, 0.0, 5.0]")[0]
    p = tmp_path / "c.yaml"
    p.write_text(f"{one}numerics:\n  lmax: 2\noutput:\n  dir: {tmp_path}\n")
    assert main(["run", str(p)]) == 0
    echo = json.loads((tmp_path / "report.json").read_text())["scenario"]
    assert {f.name for f in fields(Numerics)} <= set(echo)
    assert echo["n_inner"] == Numerics().n_inner and echo["lmax"] == 2


def test_report_records_the_environment_summary_keeps_its_columns(tmp_path, monkeypatch):
    # the numpy and BLAS builds and the BLAS thread settings decide a
    # report's last digits: report.json records them, summary.csv does not
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    one = MINIMAL.split("  - center: [0.0, 0.0, 5.0]")[0]
    p = tmp_path / "c.yaml"
    p.write_text(f"{one}numerics:\n  lmax: 2\noutput:\n  dir: {tmp_path}\n")
    assert main(["run", str(p)]) == 0
    env = json.loads((tmp_path / "report.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"numpy": np.__version__,
                   "blas": {"name": blas["name"], "version": blas["version"]},
                   "threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}}
    assert isinstance(env["blas"]["name"], str) and env["blas"]["name"]
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert next(csv.reader(fh)) == [
            "schema_version", "k0", "n_scatterers", "pair_gap",
            "x0_direct_re", "x0_direct_im", "x0_direct_err",
            "x0_structconst_re", "x0_structconst_im", "onshell_rel_diff",
            "phase_law_max", "alpha_flatness", "y_average_rel_diff",
            "born1_abs", "born2_abs", "born3_abs",
            "schatten4", "schatten4_delta", "passed"]


def test_run_determinism_byte_identical(tmp_path):
    cfg = _small_config(tmp_path, "det")
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "det" / "summary.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    second = (tmp_path / "det" / "summary.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("name", ["nonoverlap_wells", "overlap_gaussians", "structconst"])
def test_run_imports_no_scipy(tmp_path, name):
    # a fresh interpreter: the test session itself has loaded scipy oracles
    if name == "structconst":
        out = tmp_path / "g.csv"
        argv = ["structconst", "--k0", "1", "--r", "3", "--lmax", "8", "--out", str(out)]
    else:
        out = tmp_path / "out" / "report.json"
        text = (CONFIG_DIR / f"{name}.yaml").read_text().replace(
            f"dir: out/{name}", f"dir: {tmp_path / 'out'}")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        argv = ["run", str(cfg)]
    # numpy.polynomial too: the quadrature rules need no eigensolve
    code = ("import json, sys\n"
            "from multiscat.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules\n"
            "                             if m.split('.')[0] == 'scipy'\n"
            "                             or m.startswith('numpy.polynomial'))]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert out.exists()
    assert modules == []


@pytest.mark.parametrize("name", ["nonoverlap_wells", "overlap_gaussians"])
def test_run_needs_no_eigendecomposition(tmp_path, monkeypatch, name):
    # the LS t-matrices come from solves in the rank of V_l; bound states
    # are counted from eigenvalues alone
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    text = (CONFIG_DIR / f"{name}.yaml").read_text().replace(
        f"dir: out/{name}", f"dir: {tmp_path / 'out'}")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True


def test_wells_run_takes_no_grid_sized_eigenvalues(tmp_path, monkeypatch):
    # bound states are counted in the rank of V_l: every eigvalsh of a wells
    # run (the (k x k) Birman-Schwinger matrices) is smaller than the
    # momentum grid
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    text = (CONFIG_DIR / "nonoverlap_wells.yaml").read_text().replace(
        "dir: out/nonoverlap_wells", f"dir: {tmp_path / 'out'}")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert sizes and max(sizes) < report["diagnostics"]["momentum_nodes"], max(sizes)


def test_run_tail_failure_gives_partial_artifacts(tmp_path):
    # p_max barely above the 2*k0 panel edge: the momentum tail estimate
    # must trip and the run must fail loudly with a partial report
    cfg = _small_config(tmp_path, "fail", extra="  p_max: 2.5\n  tail_tol: 1.0e-6\n")
    assert main(["run", str(cfg)]) == 1
    report = json.loads((tmp_path / "fail" / "report.json").read_text())
    assert "error" in report


def _bundled_config(path, name, out, extra=""):
    """Writes to ``path`` the bundled config ``name`` with output dir ``out``
    and ``extra`` numerics lines."""
    path.write_text((CONFIG_DIR / f"{name}.yaml").read_text().replace(
        f"dir: out/{name}", f"dir: {out}").replace("  lmax: 8\n", "  lmax: 8\n" + extra))
    return path


def test_run_deletes_the_files_of_an_earlier_run(tmp_path):
    # a run owns its output files: a failed run leaves its error report
    # alone, and a run without the structure-constant sweep leaves no
    # earlier sweep behind
    out = tmp_path / "out"
    csvs = ["summary.csv", "plotdata/y_alpha.csv", "plotdata/x0_vs_eps.csv",
            "plotdata/structconst_lmax.csv"]
    wells = _bundled_config(tmp_path / "wells.yaml", "nonoverlap_wells", out)
    assert main(["run", str(wells)]) == 0
    assert all((out / f).exists() for f in csvs)
    tail = _bundled_config(tmp_path / "tail.yaml", "nonoverlap_wells", out,
                           "  p_max: 2.5\n  tail_tol: 1.0e-6\n")
    assert main(["run", str(tail)]) == 1
    assert json.loads((out / "report.json").read_text())["error_type"] == "TailEstimateError"
    assert [f for f in csvs if (out / f).exists()] == []
    assert main(["run", str(wells)]) == 0
    gaussians = _bundled_config(tmp_path / "gaussians.yaml", "overlap_gaussians", out)
    assert main(["run", str(gaussians)]) == 0
    assert [f for f in csvs if (out / f).exists()] == csvs[:3]


def test_x0_vs_eps_holds_every_eps_when_alpha_list_has_no_zero(tmp_path):
    # the lattice always computes alpha = 0; its eps samples are reported
    # whatever alpha_list holds
    text = MINIMAL.replace("k0: 1.0", "k0: 1.0\n  alpha_list: [0.5, 1.0]").replace(
        "dir: out/minimal", f"dir: {tmp_path}")
    p = tmp_path / "c.yaml"
    p.write_text(text + "numerics:\n  lmax: 4\n")
    assert main(["run", str(p)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "plotdata" / "x0_vs_eps.csv") as fh:
        rows = list(csv.DictReader(fh))
    eps = report["scenario"]["eps_list"]
    assert len(eps) == 4
    assert [float(r["eps"]) for r in rows] == sorted(eps, reverse=True) + [0.0]
    x0 = report["x_alpha_by_eps"]["0.0"]
    for r in rows[:-1]:
        re, im = x0[str(float(r["eps"]))]
        assert (float(r["re_x0"]), float(r["im_x0"])) == pytest.approx((re, im), rel=1e-11)
    with open(tmp_path / "plotdata" / "y_alpha.csv") as fh:
        assert [float(r["alpha"]) for r in csv.DictReader(fh)] == [0.5, 1.0]


def test_bundled_configs_validate():
    for name in ("nonoverlap_wells.yaml", "overlap_gaussians.yaml"):
        cfg = validate_config((CONFIG_DIR / name).read_text())
        assert cfg.scenario.k0 == 1.0
        assert cfg.warnings == []


def _scalars(obj, path=""):
    """(path, value) of every scalar in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _scalars(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _scalars(value, f"{path}/{i}")
    else:
        yield path, obj


def test_bundled_wells_under_one_and_two_blas_threads(tmp_path):
    # byte-identical summary.csv holds for one BLAS build and one thread
    # count; another count reorders some BLAS reductions.  Measured with
    # OpenBLAS on 2 vCPU: 1 against 2 threads differ in 137 of 288 numeric
    # report values, at worst 1.1e-10 relative (phase_law_residuals at
    # alpha 0.25, a residual of 1.2e-5), and in 5 summary.csv columns
    cfg = tmp_path / "wells.yaml"
    cfg.write_text((CONFIG_DIR / "nonoverlap_wells.yaml").read_text().replace(
        "dir: out/nonoverlap_wells", "dir: out"))
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run_at(threads, name):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update({v: str(threads) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-m", "multiscat.cli", "run", str(cfg)],
                              cwd=tmp_path / name, env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / name / "out"
        report = json.loads((out / "report.json").read_text())
        assert report.pop("environment")["threads"]["OPENBLAS_NUM_THREADS"] == str(threads)
        return report, (out / "summary.csv").read_bytes()

    one, summary = run_at(1, "one")
    again, summary_again = run_at(1, "again")
    two = run_at(2, "two")[0]
    assert summary_again == summary and again == one
    one, two = dict(_scalars(one)), dict(_scalars(two))
    assert one.keys() == two.keys()
    for path, a in one.items():
        b = two[path]
        if isinstance(a, float) and isinstance(b, float):
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (path, a, b)
        else:
            assert a == b, path
