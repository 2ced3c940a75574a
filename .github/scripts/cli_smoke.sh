#!/usr/bin/env bash
# End-to-end smoke runs of the multiscat command line, from the repository root:
#
#     bash .github/scripts/cli_smoke.sh MULTISCAT PYTHON
#
# MULTISCAT is the multiscat executable under test and PYTHON an interpreter
# that can read its reports.  The script validates and runs the bundled
# configs, validates the Gaussians config with dir_in [1.0e-200, 0, 0] (a
# length whose square underflows: exit status 0 and one "not unit length"
# warning, as Scenario normalises it), reruns the wells config into the
# same directory with a momentum tail it cannot pass (p_max 2.5, tail_tol
# 1e-6) and checks that the run
# exits 1 with an error report and leaves no summary.csv or plotdata CSV of
# the earlier run, runs the wells config at n_max 3 (the Born-3 term), runs
# three wells in general position at n_max 3 (three distinct separations:
# exit status 0, three finite Born terms, and the warning that the gates
# check only the first pair), runs a
# non-overlapping pair of unequal wells through the spectral Schatten norm
# (both bundled pairs repeat one potential) and checks that every k's
# refinement delta stays at round-off (<= 1e-12), runs the bundled wells
# nearly touching (R = 2.05: exit status 0, every k's refinement delta
# <= 1e-12, and a final l-truncation at k0 above its starting one), runs a pair of
# non-overlapping Gaussians through the on-shell comparison (phase shifts of
# a smooth potential: the pair passes, its on-shell equivalence is among the
# comparisons and its Schatten norm is the spectral one), runs an overlapping
# pair of a repulsive and an attractive Gaussian off the z axis through the
# grid Schatten norm (finite and positive, refinement delta below 0.05),
# runs the two long-range kinds (radial rules longer than the momentum grid,
# through the same LS path as the bundled configs), two bound-state wells
# and a repulsive well (no bound state: the LS stage's positive-sign branch)
# with one scatterer each, checks that no run raises the LS extrapolation
# flag, that every report read for it (the bundled ones, the Gaussian pair, the
# long-range kinds and the single wells) gives every potential one LS rank
# and bound-state count per partial wave, a solve residual below 1e-8 and
# an LS cross-check below 1e-12 (the factorised half-shell column against
# the direct solve; the largest measured is 3.0e-15, on the truncated
# Coulomb), that a misspelled config key and a
# removed one fail validation with exit status 2, and that a potential with
# a bad v0, a and rc fails validation with exit status 2 and all three field
# paths reported.  Runs write under out/.
set -euo pipefail
multiscat=$1
python=$2
cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the eps extrapolation of the on-shell t_l agrees with the eps = 0 solve
# within its Richardson error
no_flag() {
  "$python" -c "import json, sys; ls = json.load(open(sys.argv[1]))['diagnostics']['ls']; assert ls['extrapolation_flag'] is False, ls" "$1"
}

# one rank and one bound-state count per l <= lmax for every potential,
# every LS solve within the residual gate, and the factorised half-shell
# column within 1e-12 of the direct solve
ls_per_l() {
  "$python" -c "import json, sys; r = json.load(open(sys.argv[1])); ls = r['diagnostics']['ls']; n = r['scenario']['lmax'] + 1; assert all(len(p['rank']) == len(p['bound_states']) == n for p in ls['potentials']), ls; assert ls['solve_residual'] < 1e-8, ls; assert ls['cross_check'] < 1e-12, ls" "$1"
}

echo "== the bundled configs"
"$multiscat" validate configs/nonoverlap_wells.yaml
"$multiscat" validate configs/overlap_gaussians.yaml
"$multiscat" run configs/nonoverlap_wells.yaml
"$multiscat" run configs/overlap_gaussians.yaml
no_flag out/nonoverlap_wells/report.json
no_flag out/overlap_gaussians/report.json
ls_per_l out/nonoverlap_wells/report.json
ls_per_l out/overlap_gaussians/report.json

echo "== a direction whose squared length underflows is normalised with a warning"
sed 's/^  dir_in: \[0.0, 0.0, 1.0\]$/  dir_in: [1.0e-200, 0.0, 0.0]/' \
  configs/overlap_gaussians.yaml > "$tmp/tiny_dir.yaml"
grep -q '^  dir_in: \[1.0e-200, 0.0, 0.0\]$' "$tmp/tiny_dir.yaml"
"$multiscat" validate "$tmp/tiny_dir.yaml" 2> "$tmp/tiny_dir.err"
cat "$tmp/tiny_dir.err"
test "$(grep -c 'not unit length' "$tmp/tiny_dir.err")" -eq 1

echo "== a failed run in the same directory leaves only its error report"
sed 's/^  lmax: 8$/  lmax: 8\n  p_max: 2.5\n  tail_tol: 1.0e-6/' configs/nonoverlap_wells.yaml \
  > "$tmp/short_tail.yaml"
grep -q '^  tail_tol: 1.0e-6$' "$tmp/short_tail.yaml"
status=0
"$multiscat" run "$tmp/short_tail.yaml" || status=$?
test "$status" -eq 1
"$python" -c "import json, sys; r = json.load(open(sys.argv[1])); assert r['error_type'] == 'TailEstimateError', r" out/nonoverlap_wells/report.json
test ! -e out/nonoverlap_wells/summary.csv
test -z "$(find out/nonoverlap_wells/plotdata -name '*.csv')"

echo "== the wells config at n_max 3 (the Born-3 term)"
sed -e 's/^  n_max: 2 /  n_max: 3 /' -e 's|dir: out/nonoverlap_wells|dir: out/wells_born3|' \
  configs/nonoverlap_wells.yaml > "$tmp/wells_born3.yaml"
grep -q '^  n_max: 3 ' "$tmp/wells_born3.yaml"
"$multiscat" run "$tmp/wells_born3.yaml"
# born3_abs, the 16th summary column, is filled only when _born3 ran
test -n "$(tail -n 1 out/wells_born3/summary.csv | cut -d, -f16)"

echo "== three wells in general position at n_max 3"
cat > "$tmp/three_wells.yaml" <<YAML
scenario:
  k0: 1.0
  dir_out: [0.8660254037844386, 0.0, 0.5]
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
  - center: [0.0, 0.0, 5.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
  - center: [3.0, 2.5, 1.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
numerics:
  lmax: 4
  n_max: 3
output:
  dir: out/three_wells
YAML
"$multiscat" run "$tmp/three_wells.yaml" 2> "$tmp/three_wells.err"
cat "$tmp/three_wells.err"
grep -q 'the gates check only the pair' "$tmp/three_wells.err"
"$python" -c "import json, math, sys; b = json.load(open(sys.argv[1]))['born_terms']; assert len(b) == 3 and all(math.isfinite(x) for t in b for x in t), b" out/three_wells/report.json

echo "== a non-overlapping pair of unequal wells (the spectral norm of two potentials)"
cat > "$tmp/unequal_wells.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: square_well, v0: -1.0, a: 1.0}
  - center: [0.0, 0.0, 4.0]
    potential: {kind: square_well, v0: -0.7, a: 1.3}
numerics:
  lmax: 8
output:
  dir: out/unequal_wells
YAML
"$multiscat" run "$tmp/unequal_wells.yaml"
"$python" -c "import json, sys; s = json.load(open(sys.argv[1]))['schatten']; assert s['method'] == 'spectral' and len(s['lmax']) == 4, s; assert max(s['refinement_deltas']) <= 1e-12, s" out/unequal_wells/report.json

echo "== nearly touching wells (the spectral norm grows its l-truncation until it converges)"
sed -e 's/^  - center: \[0.0, 0.0, 5.0\]$/  - center: [0.0, 0.0, 2.05]/' \
  -e 's|dir: out/nonoverlap_wells|dir: out/touching_wells|' \
  configs/nonoverlap_wells.yaml > "$tmp/touching_wells.yaml"
grep -q '^  - center: \[0.0, 0.0, 2.05\]$' "$tmp/touching_wells.yaml"
"$multiscat" run "$tmp/touching_wells.yaml"
# k0 = 1 is the second k; it starts at 1 + 4 * 2^(1/3) + 6 l's (r_max = 1)
"$python" -c "import json, sys; s = json.load(open(sys.argv[1]))['schatten']; assert s['method'] == 'spectral' and max(s['refinement_deltas']) <= 1e-12, s; assert s['lmax'][1] > int(1.0 + 4.0 * 2.0 ** (1.0 / 3.0)) + 6, s" out/touching_wells/report.json

echo "== a non-overlapping pair of Gaussians (on-shell phase shifts of a smooth potential)"
cat > "$tmp/gaussian_pair.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: gaussian, v0: -1.0, a: 0.5}
  - center: [0.0, 0.0, 9.0]
    potential: {kind: gaussian, v0: -1.0, a: 0.5}
numerics:
  lmax: 8
output:
  dir: out/gaussian_pair
YAML
"$multiscat" run "$tmp/gaussian_pair.yaml"
"$python" -c "import json, sys; r = json.load(open(sys.argv[1])); names = [c['name'] for c in r['comparisons']]; assert r['passed'] is True and 'onshell_equivalence' in names, r['comparisons']; assert r['schatten']['method'] == 'spectral', r['schatten']" out/gaussian_pair/report.json
no_flag out/gaussian_pair/report.json
ls_per_l out/gaussian_pair/report.json

echo "== an overlapping mixed-sign pair of Gaussians off the z axis (the grid norm)"
cat > "$tmp/mixed_sign_pair.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: gaussian, v0: 1.5, a: 0.8}
  - center: [0.5, 0.3, 0.9]
    potential: {kind: gaussian, v0: -1.0, a: 1.0}
numerics:
  lmax: 8
output:
  dir: out/mixed_sign_pair
YAML
"$multiscat" run "$tmp/mixed_sign_pair.yaml"
"$python" -c "import json, math, sys; s = json.load(open(sys.argv[1]))['schatten']; assert s['method'] == 'grid', s; assert math.isfinite(s['value']) and s['value'] > 0, s; assert s['refinement_delta'] < 0.05, s" out/mixed_sign_pair/report.json

echo "== the long-range kinds end to end (one scatterer each)"
for spec in "truncated_coulomb|v0: -1.0, a: 1.0, rc: 0.01" "exponential|v0: -2.0, a: 0.7"; do
  kind=${spec%%|*}
  cat > "$tmp/$kind.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: $kind, ${spec#*|}}
numerics:
  lmax: 8
output:
  dir: out/$kind
YAML
  "$multiscat" run "$tmp/$kind.yaml"
  no_flag "out/$kind/report.json"
  ls_per_l "out/$kind/report.json"
done

echo "== bound-state wells and a repulsive well (one scatterer each)"
# one s-wave bound state; then bound states in three partial waves, whose
# LS factors have mixed ranks across l; then none, for v0 > 0
for spec in "bound_well|v0: -2.8, a: 1.0|[1, 0, 0, 0, 0, 0, 0, 0, 0]" \
            "deep_well|v0: -12.0, a: 1.5|[2, 1, 1, 0, 0, 0, 0, 0, 0]" \
            "repulsive_well|v0: 3.0, a: 1.0|[0, 0, 0, 0, 0, 0, 0, 0, 0]"; do
  IFS='|' read -r name pot counts <<< "$spec"
  cat > "$tmp/$name.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: square_well, $pot}
numerics:
  lmax: 8
output:
  dir: out/$name
YAML
  "$multiscat" run "$tmp/$name.yaml"
  ls_per_l "out/$name/report.json"
  "$python" -c "import json, sys; p = json.load(open(sys.argv[1]))['diagnostics']['ls']['potentials'][0]; assert p['bound_states'] == json.loads(sys.argv[2]) and len(p['rank']) == 9, p" "out/$name/report.json" "$counts"
done

echo "== a misspelled key is a configuration error"
sed 's/^  dir_out:/  dirout:/' configs/nonoverlap_wells.yaml > "$tmp/dirout.yaml"
grep -q '^  dirout:' "$tmp/dirout.yaml"
status=0
"$multiscat" validate "$tmp/dirout.yaml" 2> "$tmp/dirout.err" || status=$?
cat "$tmp/dirout.err"
test "$status" -eq 2
grep -q '^  scenario\.dirout: unknown key' "$tmp/dirout.err"

echo "== a removed key is a configuration error (the grid Schatten levels are fixed)"
cat > "$tmp/schatten.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: gaussian, v0: -1.0, a: 1.0}
  - center: [0.0, 0.0, 1.0]
    potential: {kind: gaussian, v0: -1.0, a: 1.0}
numerics: {schatten_radial: 12}
YAML
status=0
"$multiscat" validate "$tmp/schatten.yaml" 2> "$tmp/schatten.err" || status=$?
cat "$tmp/schatten.err"
test "$status" -eq 2
grep -q '^  numerics\.schatten_radial: unknown key' "$tmp/schatten.err"

echo "== every bad parameter of one potential is reported"
cat > "$tmp/bad_potential.yaml" <<YAML
scenario:
  k0: 1.0
scatterers:
  - center: [0.0, 0.0, 0.0]
    potential: {kind: truncated_coulomb, v0: true, a: -1.0, rc: 0}
YAML
status=0
"$multiscat" validate "$tmp/bad_potential.yaml" 2> "$tmp/bad_potential.err" || status=$?
cat "$tmp/bad_potential.err"
test "$status" -eq 2
for field in v0 a rc; do
  grep -q "^  scatterers\[0\]\.potential\.$field: " "$tmp/bad_potential.err"
done
