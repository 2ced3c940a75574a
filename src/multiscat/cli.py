"""Configuration ingestion, scenario execution, and artifact emission.

A run is driven by a single YAML file (see configs/ for commented
examples).  ``validate_config`` reports every problem at once, each at its
field path, and every mapping of the config rejects a key that the run does
not read.  ``multiscat run config.yaml`` writes

* ``report.json``    - the full verification report (complex numbers as
  [re, im] pairs; ``scenario`` echoes every Numerics field, with the
  values the run derives for eps_list and p_max, and the momentum-node
  count),
* ``summary.csv``    - one fixed-schema row (schema_version column),
* ``plotdata/*.csv`` - Y_alpha vs alpha, X_0 vs eps with the extrapolated
  value, and the structure-constant truncation sweep,

and exits 0 exactly when every enabled comparison passed its configured
tolerance.  It first deletes those CSV files (``_RUN_FILES``), so a failed
run leaves its error report alone and no file of an earlier run survives.
Identical configs produce byte-identical summary.csv files: there is no
randomness anywhere in a run and reduction orders are fixed.

``multiscat structconst --k0 K --r R --lmax L --out g.csv`` writes the
structure constants g_{lm;l'm'}(k0, R) as one CSV row
``l,m,lp,mp,re_g,im_g`` per entry, in ``sph_index`` order on both sides,
with the real and imaginary parts in ``.16e`` form (``_write_structconst``).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from multiscat.greens import structure_constants
from multiscat.multiscatter import (
    Numerics,
    Scenario,
    ScenarioEngine,
    alpha_list_problem,
    direction_length,
    eps_list_problem,
)
from multiscat.potentials import KINDS, Potential, Scatterer

log = logging.getLogger("multiscat")

SUMMARY_SCHEMA_VERSION = 1

_RUN_FILES = ("summary.csv", "plotdata/y_alpha.csv", "plotdata/x0_vs_eps.csv",
              "plotdata/structconst_lmax.csv")

SUMMARY_COLUMNS = [
    "schema_version", "k0", "n_scatterers", "pair_gap",
    "x0_direct_re", "x0_direct_im", "x0_direct_err",
    "x0_structconst_re", "x0_structconst_im", "onshell_rel_diff",
    "phase_law_max", "alpha_flatness", "y_average_rel_diff",
    "born1_abs", "born2_abs", "born3_abs",
    "schatten4", "schatten4_delta", "passed",
]


class ConfigError(ValueError):
    """Aggregated configuration problems; .errors lists (field_path, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "\n".join(f"  {path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid configuration:\n{lines}")


@dataclass
class RunConfig:
    scenario: Scenario
    output_dir: Path
    warnings: list = field(default_factory=list)


def _is_number(v) -> bool:
    """An int or float with a finite float value; not YAML's true/false, bools being ints."""
    if isinstance(v, bool):
        return False
    # false for nan, for +-inf and for an int that float() cannot hold
    return isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _is_integer(v) -> bool:
    """A number with an integral value (8 or 8.0, not 8.5 or true)."""
    return _is_number(v) and (isinstance(v, int) or v.is_integer())


def _is_vector(v) -> bool:
    """Three numbers."""
    return isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v))


# The rule tables.  Each maps a key of one config block to (rule, what,
# cast): a value that fails ``rule`` is reported at its field path as
# "must be <what>, got <value>", and one that passes enters the run as
# ``cast(value)``.  A table's keys are the keys its block accepts.
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number", float)


def _integer_in(lo: int, hi: int) -> tuple:
    return (lambda v: _is_integer(v) and lo <= v <= hi, f"an integer in [{lo}, {hi}]", int)


def _number_list(problem, what: str) -> tuple:
    """A list of numbers, empty (the default) or one that ``problem`` finds no fault in."""
    return (lambda v: (isinstance(v, list) and all(map(_is_number, v))
                       and not (v and problem(v))), what, tuple)


# Scenario reads the same length and normalises the direction by it
_DIRECTION = (lambda v: _is_vector(v) and 0 < direction_length(v) < math.inf,
              "a 3-vector of nonzero, finite length", tuple)

_SCENARIO = {
    "k0": _POSITIVE,
    "dir_in": _DIRECTION,
    "dir_out": _DIRECTION,
    "eps_list": _number_list(eps_list_problem, "a list of at least 3 distinct positive "
                             "numbers, each >= 1.2 times the next once sorted"),
    "alpha_list": _number_list(alpha_list_problem,
                               "a list of at least 2 distinct nonnegative numbers"),
}
_SCATTERER = {
    "center": (_is_vector, "a 3-vector", tuple),
    "potential": (lambda v: isinstance(v, dict), "a mapping", dict),
}
_KIND = (lambda v: v in KINDS, f"one of {KINDS}", str)
_POTENTIAL = {
    "kind": _KIND,
    # a zero potential makes X_0 vanish, and every alpha gate divides by it
    "v0": (lambda v: _is_number(v) and v != 0, "a nonzero number", float),
    "a": _POSITIVE,
}
# only a truncated Coulomb potential reads rc
_COULOMB = {**_POTENTIAL, "rc": _POSITIVE}
_NUMERICS = {
    "lmax": _integer_in(0, 30),
    "p_max": _POSITIVE,
    "n_inner": _integer_in(8, 512),
    "n_mid": _integer_in(8, 512),
    "n_max": _integer_in(1, 3),
    "tail_tol": _POSITIVE,
}
_TOLERANCES = dict.fromkeys(Numerics().tolerances, _POSITIVE)
_OUTPUT = {"dir": (lambda v: isinstance(v, str), "a path string", Path)}


def _unknown_keys(block: dict, path: str, known) -> list:
    """(field path, message) for every key of mapping ``block`` the run does not read."""
    prefix = f"{path}." if path else ""
    return [(f"{prefix}{key}", f"unknown key; known: {sorted(known)}")
            for key in block if key not in known]


def validate_config(text: str) -> RunConfig:
    """Parse and validate a YAML config, reporting every violation at once.

    Every field is checked against its row of a rule table; an absent or
    null optional key takes its default.
    """
    errors: list = []
    warnings: list = []
    try:
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError([("<file>", f"not parseable as YAML: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<file>", "top level must be a mapping")])

    def check(path: str, value, rule, what: str) -> bool:
        """Whether ``value`` passes ``rule``; if not, records that it must be ``what``."""
        if rule(value):
            return True
        errors.append((path, f"must be {what}, got {value!r}"))
        return False

    def fields(path: str, block, table: dict, required=()) -> dict:
        """cast(value) of each key of ``table`` whose value in ``block`` passes its rule.

        An absent or null key is checked only if ``required``; else it takes its default.
        """
        block = block if isinstance(block, dict) else {}
        errors.extend(_unknown_keys(block, path, table))
        out = {}
        for key, (rule, what, cast) in table.items():
            v = block.get(key)
            if (v is not None or key in required) and check(f"{path}.{key}", v, rule, what):
                out[key] = cast(v)
        return out

    def block(name: str, table: dict, required=()) -> dict:
        """``fields`` of top-level mapping ``name``; absent or null, every key's default."""
        check(name, raw.get(name), lambda v: v is None or isinstance(v, dict), "a mapping")
        return fields(name, raw.get(name), table, required)

    errors += _unknown_keys(raw, "", ("scenario", "scatterers", "numerics",
                                      "tolerances", "output"))
    scen = block("scenario", _SCENARIO, required=("k0",))
    for name in ("dir_in", "dir_out"):
        if name in scen and abs((n := direction_length(scen[name])) - 1.0) > 1e-9:
            warnings.append(f"scenario.{name} was not unit length (|v| = {n:.6g}); "
                            "normalised")

    scatterers = []
    raw_scat = raw.get("scatterers")
    check("scatterers", raw_scat, lambda v: isinstance(v, list) and len(v) > 0,
          "a list of at least one scatterer")
    for i, s in enumerate(raw_scat if isinstance(raw_scat, list) else []):
        base = f"scatterers[{i}]"
        scat = fields(base, s, _SCATTERER, required=_SCATTERER)
        pot = scat.get("potential")
        if pot is None or not check(f"{base}.potential.kind", pot.get("kind"), *_KIND[:2]):
            continue
        table = _COULOMB if pot["kind"] == "truncated_coulomb" else _POTENTIAL
        # every parameter of one potential is checked, whichever fail
        params = fields(f"{base}.potential", pot, table, required=table)
        if "center" in scat and len(params) == len(table):
            scatterers.append(Scatterer(scat["center"], Potential(**params)))

    if len(scatterers) > 2:
        warnings.append(f"{len(scatterers)} scatterers: the gates check only the pair "
                        "scatterers[0], scatterers[1], and the on-shell equivalence "
                        "and phase-law gates are skipped; the other scatterers enter "
                        "only the Born terms")

    num = block("numerics", _NUMERICS)
    if "p_max" in num and "k0" in scen:
        check("numerics.p_max", num["p_max"], lambda p: p > 2 * scen["k0"],
              f"above 2*k0 = {2 * scen['k0']:g}")
    tolerances = block("tolerances", _TOLERANCES)
    output = block("output", _OUTPUT)

    if errors:
        raise ConfigError(errors)

    numerics = Numerics(eps_list=scen.pop("eps_list", ()),
                        alpha_list=scen.pop("alpha_list", ()) or Numerics().alpha_list,
                        tolerances={**Numerics().tolerances, **tolerances}, **num)
    scenario = Scenario(scatterers=tuple(scatterers), numerics=numerics, **scen)
    return RunConfig(scenario=scenario, output_dir=output.get("dir", Path("out")),
                     warnings=warnings)


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12e}"


def _write_summary(path: Path, report) -> None:
    d = report.diagnostics
    born = report.born_terms + [None] * (3 - len(report.born_terms))
    row = {
        "schema_version": str(SUMMARY_SCHEMA_VERSION),
        "k0": _fmt(report.scenario["k0"]),
        "n_scatterers": str(len(report.scenario["scatterers"])),
        "pair_gap": _fmt(d.get("pair_gap")),
        "x0_direct_re": _fmt(report.x0_direct.real),
        "x0_direct_im": _fmt(report.x0_direct.imag),
        "x0_direct_err": _fmt(report.x0_direct_error),
        "x0_structconst_re": _fmt(None if report.x0_structconst is None
                                  else report.x0_structconst.real),
        "x0_structconst_im": _fmt(None if report.x0_structconst is None
                                  else report.x0_structconst.imag),
        "onshell_rel_diff": _fmt(report.onshell_rel_diff),
        "phase_law_max": _fmt(max(report.phase_law_residuals.values())
                              if report.phase_law_residuals else None),
        "alpha_flatness": _fmt(report.alpha_flatness),
        "y_average_rel_diff": _fmt(report.y_average_rel_diff),
        "born1_abs": _fmt(abs(born[0]) if born[0] is not None else None),
        "born2_abs": _fmt(abs(born[1]) if born[1] is not None else None),
        "born3_abs": _fmt(abs(born[2]) if born[2] is not None else None),
        "schatten4": _fmt(report.schatten.get("value")),
        "schatten4_delta": _fmt(report.schatten.get("refinement_delta")),
        "passed": "1" if report.passed else "0",
    }
    lines = [",".join(SUMMARY_COLUMNS), ",".join(row[c] for c in SUMMARY_COLUMNS)]
    path.write_text("\n".join(lines) + "\n")


def _write_plotdata(outdir: Path, report) -> None:
    pd = outdir / "plotdata"
    pd.mkdir(parents=True, exist_ok=True)
    sv = str(SUMMARY_SCHEMA_VERSION)
    eps_seq = sorted(report.x_alpha_by_eps.get(0.0, {}), reverse=True)

    lines = ["schema_version,alpha,"
             + ",".join(f"re_eps{e:g},im_eps{e:g}" for e in eps_seq)
             + ",re_extrap,im_extrap"]
    for a in sorted(report.y_alpha_samples):
        phase = np.exp(-1j * a * report.scenario["k0"])
        ys = [report.x_alpha_by_eps[a][e] * phase for e in eps_seq] + [report.y_alpha_samples[a]]
        lines.append(",".join([sv, _fmt(a)] + [_fmt(p) for y in ys for p in (y.real, y.imag)]))
    (pd / "y_alpha.csv").write_text("\n".join(lines) + "\n")

    x0 = {**report.x_alpha_by_eps.get(0.0, {}), 0.0: report.x0_direct}
    lines = ["schema_version,eps,re_x0,im_x0"] + [
        f"{sv},{_fmt(e)},{_fmt(x0[e].real)},{_fmt(x0[e].imag)}" for e in eps_seq + [0.0]]
    (pd / "x0_vs_eps.csv").write_text("\n".join(lines) + "\n")

    if report.x0_structconst_by_lmax:
        lines = ["schema_version,lmax,re_x0,im_x0,rel_delta_vs_full"]
        full = report.x0_structconst
        for lm, v in enumerate(report.x0_structconst_by_lmax):
            lines.append(f"{sv},{lm},{_fmt(v.real)},{_fmt(v.imag)},"
                         f"{_fmt(abs(v - full) / abs(full))}")
        (pd / "structconst_lmax.csv").write_text("\n".join(lines) + "\n")


def _write_structconst(path: Path, g: np.ndarray, lmax: int) -> None:
    """One CSV row (l, m, l', m', Re g, Im g) per entry of the structure constants ``g``.

    The rows run in ``sph_index`` order on both sides, and the parts are
    written in ``.16e`` form.
    """
    ls = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    n = ls.size
    ms = np.arange(n) - ls * (ls + 1)
    g = g.ravel()
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["l", "m", "lp", "mp", "re_g", "im_g"])
        wr.writerows(zip(np.repeat(ls, n).tolist(), np.repeat(ms, n).tolist(),
                         np.tile(ls, n).tolist(), np.tile(ms, n).tolist(),
                         [f"{v:.16e}" for v in g.real.tolist()],
                         [f"{v:.16e}" for v in g.imag.tolist()]))


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (outdir / name).unlink(missing_ok=True)
    try:
        report = ScenarioEngine(config.scenario).verify()
    except Exception as exc:
        log.error("run failed: %s", exc)
        payload = {"error": str(exc), "error_type": type(exc).__name__,
                   "config_warnings": config.warnings}
        (outdir / "report.json").write_text(json.dumps(payload, indent=2,
                                                       sort_keys=True) + "\n")
        return 1

    payload = report.to_json_dict()
    payload["config_warnings"] = config.warnings
    # what decides the last digits: the numpy and BLAS builds and BLAS threads
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    payload["environment"] = {
        "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_summary(outdir / "summary.csv", report)
    _write_plotdata(outdir, report)
    for c in report.comparisons:
        log.info("%-22s %.3e (tol %.1e) %s", c["name"], c["value"],
                 c["tolerance"], "PASS" if c["passed"] else "FAIL")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multiscat",
        description="Desk-scale multiple-scattering verification runs")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", type=Path)

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("config", type=Path)

    p_sc = sub.add_parser("structconst",
                          help="export a structure-constant table as CSV")
    p_sc.add_argument("--k0", type=float, required=True)
    p_sc.add_argument("--r", "--R", dest="r", type=float, nargs="+",
                      required=True, metavar="R",
                      help="separation: one value (along z) or three components")
    p_sc.add_argument("--lmax", type=int, required=True)
    p_sc.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s", stream=sys.stderr)

    if args.command in ("run", "validate"):
        try:
            text = args.config.read_text()
        except OSError as exc:
            log.error("cannot read config: %s", exc)
            return 2
        try:
            config = validate_config(text)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return 2
        for w in config.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.command == "validate":
            print("config OK")
            return 0
        return run(config)

    if args.command == "structconst":
        if len(args.r) == 1:
            R = (0.0, 0.0, args.r[0])
        elif len(args.r) == 3:
            R = tuple(args.r)
        else:
            log.error("--r takes one or three values")
            return 2
        try:
            g = structure_constants(args.k0, R, args.lmax)
        except (ValueError, OverflowError) as exc:
            # h+_L(k0 |R|) overflows for L = 2 lmax far above k0 |R|
            log.error("cannot compute structure constants: %s", exc)
            return 2
        args.out.parent.mkdir(parents=True, exist_ok=True)
        _write_structconst(args.out, g, args.lmax)
        print(f"wrote {(args.lmax + 1) ** 4} entries to {args.out}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
