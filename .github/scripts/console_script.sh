#!/usr/bin/env bash
# Smoke test of the installed `pbopt` console script: eval, solve, check and
# gradcheck on the built-in problems, with their outputs checked against the
# closed forms.  Run after `pip install -e .`; its files go to
# $RUNNER_TEMP, or to a fresh temporary directory outside CI.
set -eo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

# eval and solve without --check load no scipy module (only the certifier
# does), and no numpy.ma (about 14 ms, which np.unique loads); -X importtime
# names every module imported on stderr
python -X importtime -m pbopt.cli eval --problem example2 --x 0.1 --t 0.3 > /dev/null 2> "$tmp/import_eval.err"
python -X importtime -m pbopt.cli solve --problem example2 --trace "$tmp/trace_import.csv" > /dev/null 2> "$tmp/import_solve.err"
for log in "$tmp/import_eval.err" "$tmp/import_solve.err"; do
    if grep -E '\| +(scipy|numpy\.ma)(\.|$)' "$log"; then
        echo "$log: a scipy or numpy.ma module was imported"; exit 1
    fi
done

pbopt eval --problem example1 --x 0.5 --t 0.1
pbopt eval --problem example1 --x 0.01 --t 0.002 > "$tmp/corner.json"
# every start of the CLI's default config finishes in its first round there
python -c 'import json, sys; r = json.load(open(sys.argv[1])); ok = r["status"] == "solved" and abs(r["value"] - 0.2) <= 1e-3 and r["rounds"] == 1; sys.exit(0 if ok else f"x -> 0 corner eval: {r}")' "$tmp/corner.json"
# at x = 0.1 the argmax of example2 is a segment of multipliers at y = 1, so
# every row of the deduplicated cloud shares its first coordinate
pbopt eval --problem example2 --x 0.1 --t 0.3 > "$tmp/segment.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); P = [tuple(p) for p in r["argmax"]]; ok = r["status"] == "solved" and abs(r["value"] - 1.1) <= 1e-3 and len(P) >= 2 and P == sorted(P) and all(max(abs(a - b) for a, b in zip(p, q)) > 1e-9 for i, p in enumerate(P) for q in P[:i]); sys.exit(0 if ok else f"example2 segment eval: {r}")' "$tmp/segment.json"
pbopt eval --problem synthetic2d --x=0.4,-0.2 --t 0.05 > "$tmp/synthetic2d.json"
python -c 'import json, sys; from pbopt import benchlib; r = json.load(open(sys.argv[1])); psi = benchlib.get_problem("synthetic2d")[1].psi_p_t([0.4, -0.2], 0.05); ok = r["status"] == "solved" and abs(r["value"] - psi) <= 1e-3; sys.exit(0 if ok else f"synthetic2d eval: {r}, closed form {psi}")' "$tmp/synthetic2d.json"
# the first level walks to the box edge x = -1 in one batched call after its
# first, and the warm levels start and stay there: one batched call each
pbopt solve --problem example2 --t0 1 --rho 0.5 --tmin 0.25 --trace "$tmp/trace.csv" --summary "$tmp/summary.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); ok = abs(r["final_x"][0] + 1.0) <= 1e-3 and r["unread_evals"] == 0 and r["inner_calls"] == 4; sys.exit(0 if ok else f"example2 solve summary: {r}")' "$tmp/summary.json"
# an interior local minimum (x = 0.5 at t = 0.25), where most solves made
# ahead go unread; both counts are pinned, so a change to what the search
# solves ahead fails here rather than passing quietly
pbopt solve --problem example2 --x0 7 --t0 0.5 --tmin 0.25 --trace "$tmp/trace_interior.csv" --summary "$tmp/summary_interior.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); ok = r["inner_calls"] == 17 and r["unread_evals"] == 200 and not r["terminal"].startswith("failure"); sys.exit(0 if ok else f"example2 interior solve summary: {r}")' "$tmp/summary_interior.json"
# the excess series of that trace against its limit point is finite
pbopt diagnose --problem example2 --trace "$tmp/trace.csv" --x-bar -1 --out "$tmp/excess.csv" > "$tmp/diagnose.json"
python -c 'import json, math, sys; r = json.load(open(sys.argv[1])); ok = r["entries"] >= 1 and math.isfinite(r["limit_estimate"]); sys.exit(0 if ok else f"example2 diagnose: {r}")' "$tmp/diagnose.json"
# every inner start overflows at x-bar = 1e308: one error line and exit 1, not an infinite excess
code=0
pbopt diagnose --problem example2 --trace "$tmp/trace.csv" --x-bar 1e308 --out "$tmp/excess_far.csv" > "$tmp/diagnose_far.json" 2> "$tmp/diagnose_far.err" || code=$?
if [ "$code" -ne 1 ] || [ "$(wc -l < "$tmp/diagnose_far.err")" -ne 1 ] || ! grep -q '^error: ' "$tmp/diagnose_far.err"; then
    echo "example2 diagnose at x-bar 1e308: exit $code, stderr:"; cat "$tmp/diagnose_far.err"; exit 1
fi
# a 2-D level is a projected BFGS whose line search solves its unit step
# alone, and its 7 shorter trial lengths in a second call only when the unit
# step fails Armijo's test, and one confirming poll round; both counts are
# pinned (solving all 8 lengths in one call left 93 unread, and the pattern
# search took 31 calls and left 23 unread), and the final x is first-order
# stationary
pbopt solve --problem synthetic2d --t0 0.5 --rho 0.5 --tmin 0.25 --trace "$tmp/trace2d.csv" --summary "$tmp/summary2d.json"
python -c 'import json, math, sys; r = json.load(open(sys.argv[1])); gap = r["first_order_gap"]; ok = r["inner_calls"] == 17 and r["unread_evals"] == 2 and not r["terminal"].startswith("failure") and gap is not None and math.isfinite(gap) and gap <= 1e-4; sys.exit(0 if ok else f"synthetic2d solve summary: {r}")' "$tmp/summary2d.json"
# the default 20-level run: at t = 7.6e-6 BFGS stalls after moving, its
# confirming round improves, and the pattern search takes the level from the
# improving poll; both counts and the final x are pinned (a second BFGS pass
# from that poll made 156 calls with the same final x; solving all 8 trial
# lengths of a line search in one call made 154 calls and left 661 unread)
pbopt solve --problem synthetic2d --trace "$tmp/trace2d_default.csv" --summary "$tmp/summary2d_default.json"
python -c 'import json, math, sys; r = json.load(open(sys.argv[1])); x = r["final_x"]; gap = r["first_order_gap"]; ok = r["inner_calls"] == 159 and r["unread_evals"] == 32 and max(abs(x[0] - 0.002090244358559354), abs(x[1] - 0.0015943871463642127)) <= 1e-6 and gap is not None and math.isfinite(gap); sys.exit(0 if ok else f"synthetic2d default solve summary: {r}")' "$tmp/summary2d_default.json"
# the default example1 run certifies its final argmax point after the polish onto D_0
pbopt solve --problem example1 --check C --trace "$tmp/trace_check.csv" --summary "$tmp/summary_check.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1]))["stationarity"]; ok = r["status"] == "checked" and r["verdict"] is True and r["polished_violation"] <= 1e-12; sys.exit(0 if ok else f"example1 solve --check C: {r}")' "$tmp/summary_check.json"
# the C check at a point of example1 and the relaxed check at a level-0.1
# point both pass with recovered multipliers (set -e asserts exit 0), and
# neither report prints a negative zero
echo '{"x": [0.5], "y": [0.0], "u": [0.5, 0.0]}' > "$tmp/pt.json"
pbopt check --problem example1 --point "$tmp/pt.json" --kind C > "$tmp/check_c.json"
echo '{"x": [1.0], "y": [0.1], "u": [1.0, 0.0]}' > "$tmp/pt_relaxed.json"
pbopt check --problem example1 --point "$tmp/pt_relaxed.json" --kind relaxed --t 0.1 > "$tmp/check_relaxed.json"
for report in "$tmp/check_c.json" "$tmp/check_relaxed.json"; do
    python -c 'import json, math, sys; floats = []; r = json.load(open(sys.argv[1]), parse_float=lambda s: floats.append(float(s)) or floats[-1]); ok = r["verdict"] is True and r["multipliers"] == "least_norm" and not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in floats); sys.exit(0 if ok else f"example1 check: {r}")' "$report"
done
# synthetic2d's biactive origin is C-stationary, S recovers no multipliers
# there, and the removed --pattern-cap flag is a usage error
echo '{"x": [0.0, 0.0], "y": [0.0, 0.0], "u": [0.0, 0.0]}' > "$tmp/pt_origin.json"
pbopt check --problem synthetic2d --point "$tmp/pt_origin.json" --kind C > "$tmp/check_origin_c.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r["verdict"] is True else f"synthetic2d origin check C: {r}")' "$tmp/check_origin_c.json"
pbopt check --problem synthetic2d --point "$tmp/pt_origin.json" --kind S > "$tmp/check_origin_s.json"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); ok = r["verdict"] is False and r["status"] == "no feasible multipliers"; sys.exit(0 if ok else f"synthetic2d origin check S: {r}")' "$tmp/check_origin_s.json"
code=0
pbopt check --problem synthetic2d --point "$tmp/pt_origin.json" --pattern-cap 3 > "$tmp/check_cap.json" 2> "$tmp/check_cap.err" || code=$?
if [ "$code" -ne 1 ] || [ "$(wc -l < "$tmp/check_cap.err")" -ne 1 ] || ! grep -q '^error: ' "$tmp/check_cap.err"; then
    echo "check --pattern-cap 3: exit $code, stderr:"; cat "$tmp/check_cap.err"; exit 1
fi
# every analytic derivative and batch hook of each built-in matches central
# differences (the three read about 8e-11, 1.4e-10 and 3e-10), and none is non-finite
for problem in example1 example2 synthetic2d; do
    pbopt gradcheck --problem "$problem" --points 3 > "$tmp/gradcheck_$problem.json"
    python -c 'import json, sys; r = json.load(open(sys.argv[1])); ok = r["max_overall"] <= 1e-6 and not r["nonfinite"]; sys.exit(0 if ok else f"gradcheck: {r}")' "$tmp/gradcheck_$problem.json"
done
