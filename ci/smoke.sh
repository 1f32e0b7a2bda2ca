#!/usr/bin/env bash
# CLI smoke run: ./ci/smoke.sh from the repository root.  Outputs go to
# $RUNNER_TEMP, a fresh temporary directory when it is unset.
#
# The CLI checks its inputs itself and needs no JSON Schema library.  It
# imports scipy.integrate only for the model constants; these
# commands run that import against the installed releases (in CI, each
# leg's pins).  The r = 4 solve iterates the mirror-folded half of the
# fields, loading it for thermo rechecks the residual of all r - 1
# equations, and its thermo CSV is drawn as a heatmap.  The radial chain
# runs the banded LU Newton step, the reload recheck and the radial
# profile plot of its thermo CSV, and the radial r = 4, q = z, t = 1e5
# solve on n = 257 must converge: preconditioned GMRES took 18 steps and
# 2 s there, the banded step takes 16.  The exhaustion solve runs the
# stage ladder.  The r = 4, t = 1e3 solve takes inexact Newton steps and
# must converge, and so must the r = 4, q = z, t = 1e4 solve on n = 65,
# where CG stops at the forcing terms.  The six-amplitude sweep's CSV
# must be byte-identical with --jobs 1 and --jobs 2, and it is drawn as a
# sweep chart, so every plot layout runs.  So must an exhaustion sweep's,
# whose plan holds three stages.  A sweep builds its solver plan once:
# --jobs 1 runs every amplitude on the parent's plan, and the --jobs 2
# legs on the plan each worker process builds when it starts, so the
# comparisons check that a plan built once per worker gives the serial
# bytes.  The stalled solve must exit 3
# and leave its residual history next to the intended output, and so must
# a stalled thermo run whose output path comes from its config file.  A
# retired solver key such as "continuation_steps" must exit 2.  So must a
# sweep with an infinite amplitude, and it must write no CSV: every
# amplitude is built into a weight before the first solve, so a rejected
# one stops the run at /t_values instead of inside the solve loop.  A
# solve whose weight has a scalar "coeffs" must exit 2 and write no
# solution.  A saved solution edited to "n": 4 must exit 2 at /solution
# and write no CSV: solution files are checked by the run document's own
# key table and constructors, and their errors point at the --solution
# input first, then into the file.  A weight_flat solve of a zero weight
# must exit 2 at /weight and write no solution: flat Dirichlet data needs
# Q > 0 on the boundary ring, and a weight, grid and boundary that no
# solve can take together are an input error like a rejected document
# value, found before the solve at the value to blame, not a runtime
# failure.  So is a sweep with the poincare reference on a rho_max = 2
# grid: the reference density needs rho_max < 1, and the sweep must exit 2
# at /reference before any amplitude is solved, and write no CSV.
set -eo pipefail

RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

python -m todakit verify --suite smoke
python -m todakit model --r 4 --beta 1
python -m todakit solve --weight '{"kind": "poly", "r": 4, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 33, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-r4.json"
python -m todakit thermo --solution "$RUNNER_TEMP/sol-r4.json" --beta 1 --out "$RUNNER_TEMP/thermo-r4.csv"
python -m todakit plot "$RUNNER_TEMP/thermo-r4.csv" --out "$RUNNER_TEMP/heatmap-r4.svg"
python -m todakit solve --weight '{"kind": "poly", "r": 3, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "radial", "n": 129, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-radial.json"
python -m todakit thermo --solution "$RUNNER_TEMP/sol-radial.json" --beta 1 --out "$RUNNER_TEMP/thermo-radial.csv"
python -m todakit plot "$RUNNER_TEMP/thermo-radial.csv" --column S --out "$RUNNER_TEMP/profile.svg"
python -m todakit solve --weight '{"kind": "poly", "r": 4, "t": 1e5, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "radial", "n": 257, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-radial-large.json"
python -m todakit solve --boundary exhaustion --weight '{"kind": "poly", "r": 3, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 33, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-exhaustion.json"
python -m todakit solve --weight '{"kind": "constant", "r": 4, "t": 1e3, "value": 1}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-inexact.json"
python -m todakit solve --weight '{"kind": "poly", "r": 4, "t": 1e4, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 65, "rho_max": 0.9}' --out "$RUNNER_TEMP/sol-large.json"
for jobs in 1 2; do
  python -m todakit sweep --weight '{"kind": "poly", "r": 3, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 33, "rho_max": 0.9}' --t-values 0.5,1,2,4,8,16 --beta 1,-1 --jobs "$jobs" --out "$RUNNER_TEMP/sweep-jobs$jobs.csv"
done
cmp "$RUNNER_TEMP/sweep-jobs1.csv" "$RUNNER_TEMP/sweep-jobs2.csv"
for jobs in 1 2; do
  python -m todakit sweep --boundary exhaustion --weight '{"kind": "poly", "r": 3, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 33, "rho_max": 0.9}' --t-values 0.5,2,8 --beta 1 --jobs "$jobs" --out "$RUNNER_TEMP/exhaustion-sweep-jobs$jobs.csv"
done
cmp "$RUNNER_TEMP/exhaustion-sweep-jobs1.csv" "$RUNNER_TEMP/exhaustion-sweep-jobs2.csv"
python -m todakit plot "$RUNNER_TEMP/sweep-jobs1.csv" --out "$RUNNER_TEMP/sweep.svg"
echo '{"solver": {"max_iterations": 3}}' > "$RUNNER_TEMP/stall.json"
code=0
python -m todakit solve --config "$RUNNER_TEMP/stall.json" --weight '{"kind": "poly", "r": 2, "t": 1e8, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --out "$RUNNER_TEMP/stall-sol.json" || code=$?
test "$code" -eq 3
test -f "$RUNNER_TEMP/stall-sol.residual_history.json"
echo "{\"solver\": {\"max_iterations\": 3}, \"out\": \"$RUNNER_TEMP/stall-thermo.csv\"}" > "$RUNNER_TEMP/stall-thermo.json"
code=0
python -m todakit thermo --config "$RUNNER_TEMP/stall-thermo.json" --weight '{"kind": "poly", "r": 2, "t": 1e8, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' || code=$?
test "$code" -eq 3
test -f "$RUNNER_TEMP/stall-thermo.residual_history.json"
echo '{"solver": {"continuation_steps": 3}}' > "$RUNNER_TEMP/retired.json"
code=0
python -m todakit solve --config "$RUNNER_TEMP/retired.json" --weight '{"kind": "poly", "r": 2, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --out "$RUNNER_TEMP/retired-sol.json" || code=$?
test "$code" -eq 2
code=0
python -m todakit sweep --weight '{"kind": "poly", "r": 2, "coeffs": [[0, 0], [1, 0]]}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --t-values 1,inf --jobs 2 --out "$RUNNER_TEMP/inf-sweep.csv" || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/inf-sweep.csv"
code=0
python -m todakit solve --weight '{"kind": "poly", "r": 2, "coeffs": 5}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --out "$RUNNER_TEMP/scalar-coeffs.json" || code=$?
test "$code" -eq 2
test ! -e "$RUNNER_TEMP/scalar-coeffs.json"
sed 's/"n": 33/"n": 4/' "$RUNNER_TEMP/sol-r4.json" > "$RUNNER_TEMP/sol-r4-n4.json"
code=0
python -m todakit thermo --solution "$RUNNER_TEMP/sol-r4-n4.json" --beta 1 --out "$RUNNER_TEMP/thermo-n4.csv" 2> "$RUNNER_TEMP/thermo-n4.err" || code=$?
test "$code" -eq 2
grep -q "config error at /solution: .* at /grid/n: " "$RUNNER_TEMP/thermo-n4.err"
test ! -e "$RUNNER_TEMP/thermo-n4.csv"
code=0
python -m todakit solve --boundary weight_flat --weight '{"kind": "zero", "r": 2}' --grid '{"mode": "cartesian", "n": 17, "rho_max": 0.9}' --out "$RUNNER_TEMP/flat-zero.json" 2> "$RUNNER_TEMP/flat-zero.err" || code=$?
test "$code" -eq 2
grep -q "^config error at /weight: weight_flat needs Q > 0" "$RUNNER_TEMP/flat-zero.err"
test ! -e "$RUNNER_TEMP/flat-zero.json"
code=0
python -m todakit sweep --boundary weight_flat --weight '{"kind": "constant", "r": 2, "value": 1}' --grid '{"mode": "cartesian", "n": 33, "rho_max": 2}' --t-values 1,2,3,4,5,6 --jobs 2 --reference poincare --out "$RUNNER_TEMP/poincare-sweep.csv" 2> "$RUNNER_TEMP/poincare-sweep.err" || code=$?
test "$code" -eq 2
grep -q "^config error at /reference: " "$RUNNER_TEMP/poincare-sweep.err"
test ! -e "$RUNNER_TEMP/poincare-sweep.csv"
