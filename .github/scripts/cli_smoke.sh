#!/usr/bin/env bash
# End-to-end smoke runs of the multiscat command line, from the repository root:
#
#     bash .github/scripts/cli_smoke.sh MULTISCAT PYTHON
#
# MULTISCAT is the multiscat executable under test and PYTHON an interpreter
# that can read its reports.  The script validates and runs the bundled
# configs, runs the wells config at n_max 3 (the Born-3 term), runs the two
# long-range kinds with one scatterer each, and checks that a misspelled
# config key fails validation with exit status 2.  Runs write under out/.
set -euo pipefail
multiscat=$1
python=$2
cd "$(dirname "$0")/../.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== the bundled configs"
"$multiscat" validate configs/nonoverlap_wells.yaml
"$multiscat" validate configs/overlap_gaussians.yaml
"$multiscat" run configs/nonoverlap_wells.yaml
"$multiscat" run configs/overlap_gaussians.yaml

echo "== the wells config at n_max 3 (the Born-3 term)"
sed -e 's/^  n_max: 2 /  n_max: 3 /' -e 's|dir: out/nonoverlap_wells|dir: out/wells_born3|' \
  configs/nonoverlap_wells.yaml > "$tmp/wells_born3.yaml"
grep -q '^  n_max: 3 ' "$tmp/wells_born3.yaml"
"$multiscat" run "$tmp/wells_born3.yaml"
# born3_abs, the 16th summary column, is filled only when _born3 ran
test -n "$(tail -n 1 out/wells_born3/summary.csv | cut -d, -f16)"

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
  "$python" -c "import json, sys; c = json.load(open(sys.argv[1]))['diagnostics']['ls']['cross_check']; assert c < 1e-8, c" "out/$kind/report.json"
done

echo "== a misspelled key is a configuration error"
sed 's/^  dir_out:/  dirout:/' configs/nonoverlap_wells.yaml > "$tmp/dirout.yaml"
grep -q '^  dirout:' "$tmp/dirout.yaml"
status=0
"$multiscat" validate "$tmp/dirout.yaml" 2> "$tmp/dirout.err" || status=$?
cat "$tmp/dirout.err"
test "$status" -eq 2
grep -q '^  scenario\.dirout: unknown key' "$tmp/dirout.err"
