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
    """An int or a finite float; YAML's true/false load as bool, a subclass of int."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _is_integer(v) -> bool:
    """A number with an integral value (8 or 8.0, not 8.5 or true)."""
    return _is_number(v) and (isinstance(v, int) or v.is_integer())


def _unknown_keys(block, path: str, known) -> list:
    """(field path, message) for every key of mapping ``block`` the run does not read."""
    if not isinstance(block, dict):
        return []
    prefix = f"{path}." if path else ""
    return [(f"{prefix}{key}", f"unknown key; known: {sorted(known)}")
            for key in block if key not in known]


def validate_config(text: str) -> RunConfig:
    """Parse and validate a YAML config, reporting every violation at once."""
    errors: list = []
    warnings: list = []
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([("<file>", f"not parseable as YAML: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<file>", "top level must be a mapping")])

    errors += _unknown_keys(raw, "", ("scenario", "scatterers", "numerics",
                                      "tolerances", "output"))

    def block(name, known) -> dict:
        """The keys in ``known`` of top-level mapping ``name``; {} when absent or null."""
        v = raw.get(name)
        if v is not None and not isinstance(v, dict):
            errors.append((name, "must be a mapping"))
        errors.extend(_unknown_keys(v, name, known))
        return {k: x for k, x in v.items() if k in known} if isinstance(v, dict) else {}

    scen = block("scenario", ("k0", "dir_in", "dir_out", "eps_list", "alpha_list"))
    k0 = scen.get("k0")
    if not _is_number(k0) or k0 <= 0:
        errors.append(("scenario.k0", f"must be a positive number, got {k0!r}"))

    def direction(name, default):
        v = scen.get(name, default)
        arr = None
        if (not isinstance(v, (list, tuple)) or len(v) != 3
                or not all(_is_number(x) for x in v)):
            errors.append((f"scenario.{name}", f"must be a 3-vector, got {v!r}"))
        else:
            arr = np.asarray(v, dtype=float)
            n = np.linalg.norm(arr)
            if n == 0:
                errors.append((f"scenario.{name}", "must be nonzero"))
                arr = None
            elif abs(n - 1.0) > 1e-9:
                warnings.append(f"scenario.{name} was not unit length "
                                f"(|v| = {n:.6g}); normalised")
                arr = arr / n
        return arr

    dir_in = direction("dir_in", [0.0, 0.0, 1.0])
    dir_out = direction("dir_out", [0.0, 0.0, 1.0])

    for name in ("eps_list", "alpha_list"):
        v = scen.get(name)
        if v is not None and (not isinstance(v, list)
                              or not all(_is_number(x) for x in v)):
            errors.append((f"scenario.{name}", "must be a list of numbers"))
        elif v and (problem := (eps_list_problem if name == "eps_list"
                                else alpha_list_problem)(v)):
            errors.append((f"scenario.{name}", problem))

    scatterers = []
    raw_scat = raw.get("scatterers")
    if not isinstance(raw_scat, list) or len(raw_scat) < 1:
        errors.append(("scatterers", "need a list with at least one scatterer"))
        raw_scat = []
    for i, s in enumerate(raw_scat):
        base = f"scatterers[{i}]"
        errors += _unknown_keys(s, base, ("center", "potential"))
        center = s.get("center") if isinstance(s, dict) else None
        if (not isinstance(center, (list, tuple)) or len(center) != 3
                or not all(_is_number(x) for x in center)):
            errors.append((f"{base}.center", f"must be a 3-vector, got {center!r}"))
            center = (0.0, 0.0, 0.0)
        pot = s.get("potential") if isinstance(s, dict) else None
        if not isinstance(pot, dict):
            errors.append((f"{base}.potential", "must be a mapping"))
            continue
        kind = pot.get("kind")
        if kind not in KINDS:
            errors.append((f"{base}.potential.kind",
                           f"must be one of {KINDS}, got {kind!r}"))
            continue
        # only a truncated Coulomb potential reads rc
        errors += _unknown_keys(pot, f"{base}.potential", ("kind", "v0", "a")
                                + (("rc",) if kind == "truncated_coulomb" else ()))
        v0 = pot.get("v0")
        a = pot.get("a")
        rc = pot.get("rc")
        before = len(errors)
        if not _is_number(v0) or v0 == 0:
            errors.append((f"{base}.potential.v0", "must be a nonzero number"))
        if not _is_number(a) or a <= 0:
            errors.append((f"{base}.potential.a", "must be a positive number"))
        if kind == "truncated_coulomb" and (not _is_number(rc) or rc <= 0):
            errors.append((f"{base}.potential.rc",
                           "truncated_coulomb needs a positive rc"))
        # a potential with any bad parameter is dropped after all are checked
        if len(errors) > before:
            continue
        scatterers.append(Scatterer(tuple(float(x) for x in center),
                                    Potential(kind, float(v0), float(a),
                                              float(rc) if rc is not None else None)))

    if len(scatterers) > 2:
        warnings.append(f"{len(scatterers)} scatterers: the gates check only the pair "
                        "scatterers[0], scatterers[1], and the on-shell equivalence "
                        "and phase-law gates are skipped; the other scatterers enter "
                        "only the Born terms")

    num_kwargs = {}
    num_schema = {
        "lmax": (int, lambda v: 0 <= v <= 30),
        "p_max": (float, lambda v: v > 0),
        "n_inner": (int, lambda v: 8 <= v <= 512),
        "n_mid": (int, lambda v: 8 <= v <= 512),
        "n_max": (int, lambda v: 1 <= v <= 3),
        "tail_tol": (float, lambda v: v > 0),
    }
    for key, v in block("numerics", num_schema).items():
        if v is None:
            continue
        caster, check = num_schema[key]
        if not (_is_integer(v) if caster is int else _is_number(v)):
            errors.append((f"numerics.{key}",
                           f"must be {'an integer' if caster is int else 'a number'}, got {v!r}"))
        elif not check(caster(v)):
            errors.append((f"numerics.{key}", f"out of range: {v!r}"))
        else:
            num_kwargs[key] = caster(v)

    p_max = num_kwargs.get("p_max")
    if p_max is not None and _is_number(k0) and k0 > 0 and p_max <= 2 * k0:
        errors.append(("numerics.p_max", f"must exceed 2*k0 = {2 * k0:g}, got {p_max:g}"))

    tolerances = dict(Numerics().tolerances)
    for k, v in block("tolerances", tolerances).items():
        if not _is_number(v) or v <= 0:
            errors.append((f"tolerances.{k}", "must be a positive number"))
        else:
            tolerances[k] = float(v)

    out_dir = block("output", ("dir",)).get("dir", "out")
    if not isinstance(out_dir, str):
        errors.append(("output.dir", "must be a path string"))
        out_dir = "out"

    if errors:
        raise ConfigError(errors)

    numerics = Numerics(
        eps_list=tuple(scen.get("eps_list") or ()),
        alpha_list=tuple(scen.get("alpha_list") or Numerics().alpha_list),
        tolerances=tolerances,
        **num_kwargs)
    scenario = Scenario(scatterers=tuple(scatterers), k0=float(k0),
                        dir_in=tuple(dir_in), dir_out=tuple(dir_out),
                        numerics=numerics)
    return RunConfig(scenario=scenario, output_dir=Path(out_dir), warnings=warnings)


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
