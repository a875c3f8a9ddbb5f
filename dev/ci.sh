#!/bin/sh
# Repo CI: build everything and run the full test suite, then drive the
# CLI end to end.  Every gate is deterministic — counters, allocated
# words, clock reads, envelopes — so it passes or fails alike on any
# host.  The suite itself covers the engine's jobs parity on the
# benchmark batch shapes, the supervision cost and the helper pool
# (test_engine: back-to-back batches spawn nothing, concurrent and nested
# batches share it), and the session patch path's compile-free,
# allocation-bounded resolve and the structural deltas' compile-free
# rebuild resolve (test_scaling).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

# Observability smoke: a traced + metered parallel batch, then validate
# the artifacts (Chrome-trace span nesting, JSON well-formedness).
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
dune exec -- mlsclassify batch -l test/cli.t/fig1b.lat --jobs 2 \
  --trace "$obs_tmp/trace.json" --metrics-json "$obs_tmp/metrics.json" \
  test/cli.t/employee.cst test/cli.t/employee.cst > /dev/null
dune exec dev/validate_trace.exe -- "$obs_tmp/trace.json"
dune exec dev/validate_trace.exe -- --json "$obs_tmp/metrics.json"

# Front-end smoke: the policy scanner must read a file rewritten with
# tabs for spaces, a trailing comment on every line and CRLF endings
# exactly as it reads the original.
fe_policy="$obs_tmp/employee-crlf.cst"
sed 's/ /\t/g; s/$/\t# trailing comment\r/' test/cli.t/employee.cst > "$fe_policy"
fe_want=$(dune exec -- mlsclassify solve -l test/cli.t/fig1b.lat -c test/cli.t/employee.cst)
fe_got=$(dune exec -- mlsclassify solve -l test/cli.t/fig1b.lat -c "$fe_policy")
test "$fe_got" = "$fe_want" || {
  echo "ci: a CRLF/tab/comment rewrite of employee.cst solved differently" >&2
  exit 1
}
echo "ci: front-end smoke OK (CRLF, tabs and comments parse alike)"

# A Try-capped complex peer: in the cyclic set {A1, A4, A5, A8} over a
# 3-chain, A5's row {A5, A8} >= A1 is left with A8 capped at s0, so A5
# must be lowered forward and end at sc.  The CLI verifies every
# solution it prints (exit 3 on a broken constraint).
peer_lat="$obs_tmp/chain3.lat"
peer_policy="$obs_tmp/capped-peer.cst"
printf 'levels s0, sc, sf\ns0 < sc\nsc < sf\n' > "$peer_lat"
printf '%s\n' 'attrs A0, A1, A2, A4, A5, A8' 'A1 >= sc' 'A4 >= A8' \
  '{A0, A4, A1} >= A5' '{A2, A1} >= A4' '{A5, A8} >= A1' > "$peer_policy"
peer_out=$(dune exec -- mlsclassify solve -l "$peer_lat" -c "$peer_policy") || {
  echo "ci: the capped-peer policy did not solve (exit $?)" >&2
  exit 1
}
echo "$peer_out" | grep -Eq '^A5 +sc$' || {
  echo "ci: the capped-peer policy gave A5 another level than sc:" >&2
  echo "$peer_out" >&2
  exit 1
}
echo "ci: capped complex peer OK (A5 = sc)"

# A lattice declared out of topological order: fig1b.lat with its levels
# line reversed is renumbered before it is validated, and the employee
# policy must still solve to a solution the CLI verifies as minimal.
rev_lat="$obs_tmp/fig1b-reversed.lat"
sed 's/^levels .*/levels L6, L5, L4, L3, L2, L1/' test/cli.t/fig1b.lat > "$rev_lat"
rev_out=$(dune exec -- mlsclassify solve -l "$rev_lat" -c test/cli.t/employee.cst \
  --check-minimal 2>&1) || {
  echo "ci: the top-down fig1b.lat did not solve (exit $?)" >&2
  exit 1
}
echo "$rev_out" | grep -qx 'verified: pointwise minimal' || {
  echo "ci: the top-down fig1b.lat gave no verified minimal solution:" >&2
  echo "$rev_out" >&2
  exit 1
}
echo "ci: top-down lattice declaration OK (renumbered, verified minimal)"

# Pinned lattice builds: bench fig1 prints Fig. 1's lattices, covers and
# bounds, and fig4's decision counts follow the element numbering of the
# poset the Fig. 4 reduction builds (the min-poset search tries each
# domain in Poset.all order), so a change to how Poset numbers or reduces
# an order moves these lines.  fig1 is pinned whole; fig4 on its
# deterministic columns (vars, clauses, result, dpll and poset
# decisions), not its timings.
fig1_want=$(cat <<'EOF'

=== FIG1: the security lattices of Figure 1 ===
Fig. 1(a): compartmented lattice, 2 classifications x 2^2 categories = 8 access classes, height 3
  lub(S:{Army}, TS:{Nuclear}) = TS:{Army,Nuclear}
  lub(S:{Army}, S:{Nuclear}) = S:{Army,Nuclear}

Fig. 1(b): 6 levels, height 3, cover relation:
  L1 < L2
  L1 < L3
  L2 < L4
  L3 < L4
  L3 < L5
  L4 < L6
  L5 < L6
  glb(L4, L5) = L3   lub(L2, L3) = L4
EOF
)
fig1_got=$(dune exec bench/main.exe -- fig1)
test "$fig1_got" = "$fig1_want" || {
  echo "ci: bench fig1 drifted from its pin:" >&2
  echo "$fig1_got" >&2
  exit 1
}
fig4_want='4 16 SAT 3 24
6 25 SAT 2 1203
8 33 SAT 5 10385
10 42 SAT 5 64896
12 50 SAT 9 57413
14 58 SAT 5 37807'
fig4_got=$(dune exec bench/main.exe -- fig4 |
  awk '$3 == "SAT" || $3 == "UNSAT" { print $1, $2, $3, $4, $5 }')
test "$fig4_got" = "$fig4_want" || {
  echo "ci: bench fig4's vars/clauses/result/decisions drifted from their pin:" >&2
  echo "$fig4_got" >&2
  exit 1
}
echo "ci: lattice builds OK (fig1 and fig4's counts equal their pins)"

# Pinned solver counters: Instr totals on acyclic, cyclic and N5
# instances, and in the bounds, incremental, patch, epochs and
# preference modes (the last with a digest of its schedule), must equal
# their recorded values (exit 1 on any drift), so a change of data
# layout cannot silently change what the solver computes.
dune exec dev/counters_check.exe

# Differential self-check: a pinned-seed bounded run of the property
# harness (solver vs oracle/baselines/round-trips across all backends),
# in which every property on the summary's checks: line must run at least
# once: a property added to the battery that never runs fails here.
# Its cases fan out on the helper pool, and each case's battery runs
# jobs=2 batches on it from inside that fan-out; the summary must be the
# same at --jobs 1, where nothing but those nested batches uses the pool.
selfcheck_out=$(dune exec -- mlsclassify selfcheck --seed 42 --cases 60 --jobs 2)
echo "$selfcheck_out"
selfcheck_seq=$(dune exec -- mlsclassify selfcheck --seed 42 --cases 60 --jobs 1)
test "$selfcheck_seq" = "$selfcheck_out" || {
  echo "ci: selfcheck printed a different summary at --jobs 1 and --jobs 2" >&2
  exit 1
}
checks_line=$(echo "$selfcheck_out" | sed -n 's/^  checks: //p')
test -n "$checks_line" || {
  echo "ci: selfcheck printed no checks: line" >&2
  exit 1
}
for check in $checks_line; do
  case "$check" in
  *=[1-9]*) ;;
  *) echo "ci: selfcheck never ran the $check property" >&2; exit 1 ;;
  esac
done

# Serve smoke: an NDJSON session over stdio — a solve, a budget fault
# (max_steps: 0 trips on the first step), and an infeasible bounded
# resolve must each answer with the matching versioned envelope, and the
# loop must survive all three plus a trailing garbage line.
serve_out=$(printf '%s\n' \
  '{"op":"open","problem":"ci","lattice":"levels Public, Secret\nPublic < Secret\n","constraints":"secret >= Secret\n{name, salary} >= secret\n"}' \
  '{"op":"resolve","problem":"ci"}' \
  '{"op":"set_lower_bound","problem":"ci","attr":"name","level":"Secret"}' \
  '{"op":"resolve","problem":"ci","max_steps":0}' \
  '{"op":"resolve","problem":"ci","bounds":{"secret":"Public"}}' \
  '{"op":"resolve","problem":"ci"}' \
  'bogus' \
  | dune exec -- mlsclassify serve)
echo "$serve_out"
test "$(echo "$serve_out" | wc -l)" = 7 || {
  echo "ci: serve answered the wrong number of envelopes" >&2
  exit 1
}
echo "$serve_out" | grep -q '"status":"ok".*"solution"' || {
  echo "ci: serve produced no solution envelope" >&2
  exit 1
}
echo "$serve_out" | grep -q '"status":"fault".*"kind":"budget"' || {
  echo "ci: serve did not answer the over-budget resolve with a fault" >&2
  exit 1
}
echo "$serve_out" | grep -q '"status":"infeasible"' || {
  echo "ci: serve did not flag the conflicting bounds as infeasible" >&2
  exit 1
}
echo "$serve_out" | grep -q '"status":"error"' || {
  echo "ci: serve did not answer the garbage line with an error" >&2
  exit 1
}
echo "ci: serve smoke OK (ok / fault / infeasible / error envelopes)"

# Cycle parity: a re-tightened bound on a member of the 2-cycle {a, b}
# resolves on the session's patch path (the trace records it), and its
# assignment must equal a freshly opened session whose bound is already
# at the final level.  The non-binding {a, b} >= Low keeps the cycle on
# the paper's Try; a cycle of simple constraints alone is one lub.
cyc_lat='"lattice":"levels Low, Mid, High\nLow < Mid\nMid < High\n"'
cyc_cst='"constraints":"a >= b\nb >= a\n{a, b} >= Low\nc >= Low\n"'
cyc_out=$(printf '%s\n' \
  "{\"op\":\"open\",\"problem\":\"edited\",$cyc_lat,$cyc_cst}" \
  '{"op":"set_lower_bound","problem":"edited","attr":"a","level":"Mid"}' \
  '{"op":"resolve","problem":"edited"}' \
  '{"op":"set_lower_bound","problem":"edited","attr":"a","level":"High"}' \
  '{"op":"resolve","problem":"edited"}' \
  "{\"op\":\"open\",\"problem\":\"fresh\",$cyc_lat,$cyc_cst}" \
  '{"op":"set_lower_bound","problem":"fresh","attr":"a","level":"High"}' \
  '{"op":"resolve","problem":"fresh"}' \
  | dune exec -- mlsclassify serve --trace "$obs_tmp/cycle.json")
echo "$cyc_out"
edited=$(echo "$cyc_out" | grep '"problem":"edited","solution"' | tail -n 1 | sed 's/.*"solution"//')
fresh=$(echo "$cyc_out" | grep '"problem":"fresh","solution"' | sed 's/.*"solution"//')
test -n "$fresh" && test "$edited" = "$fresh" || {
  echo "ci: a re-tightened bound in a cycle diverged from a fresh session" >&2
  exit 1
}
grep -q '"path":"patch"' "$obs_tmp/cycle.json" || {
  echo "ci: the re-tightened bound in a cycle did not take the patch path" >&2
  exit 1
}
echo "ci: serve cycle parity OK (patched re-tighten = fresh session)"

# Escaped names: a session whose problem name holds a quote, a backslash
# and a tab answers with the name escaped in every reply (each line must
# be valid JSON), and after add_attribute its solution must equal a
# freshly opened session's that declares the same attributes.  printf
# '%s' and read -r keep the backslashes literal, where sh's echo would
# not.
esc_p='"problem":"q\"uo\\te\tp"'
esc_lat='"lattice":"levels Public, Secret\nPublic < Secret\n"'
esc_cst='secret >= Secret\n{name, salary} >= secret\n'
esc_out=$(printf '%s\n' \
  "{\"op\":\"open\",$esc_p,$esc_lat,\"constraints\":\"$esc_cst\"}" \
  "{\"op\":\"resolve\",$esc_p}" \
  "{\"op\":\"add_attribute\",$esc_p,\"attr\":\"dept\"}" \
  "{\"op\":\"resolve\",$esc_p}" \
  "{\"op\":\"open\",\"problem\":\"fresh\",$esc_lat,\"constraints\":\"attrs secret, name, salary, dept\\n$esc_cst\"}" \
  '{"op":"resolve","problem":"fresh"}' \
  | dune exec -- mlsclassify serve)
printf '%s\n' "$esc_out"
test "$(printf '%s\n' "$esc_out" | grep -c '"status":"ok"')" = 6 || {
  echo "ci: the escaped-name session did not answer ok to every request" >&2
  exit 1
}
printf '%s\n' "$esc_out" | while IFS= read -r line; do
  printf '%s\n' "$line" > "$obs_tmp/reply.json"
  dune exec dev/validate_trace.exe -- --json "$obs_tmp/reply.json"
done
esc_grown=$(printf '%s\n' "$esc_out" | grep -F "$esc_p,\"solution\"" | tail -n 1 | sed 's/.*"solution"//')
esc_fresh=$(printf '%s\n' "$esc_out" | grep '"problem":"fresh","solution"' | sed 's/.*"solution"//')
test -n "$esc_fresh" && test "$esc_grown" = "$esc_fresh" || {
  echo "ci: a session grown by add_attribute diverged from a fresh session" >&2
  exit 1
}
echo "ci: serve escaped names OK (valid JSON replies, grown = fresh session)"

# Serve = solve: a policy file opened over serve and resolved must give
# the pairs `mlsclassify solve` prints for the same files.  The files are
# employee.cst, whose <= line serve takes as resolve bounds instead, and
# a policy with a trivial constraint, a level-named rhs and an rhs-only
# attribute; then the front-end smoke's CRLF/tab/comment rewrite of
# employee.cst, served and held to what solve prints for the original.
# json_text turns a file into the body of a JSON string; serve_vs_solve
# solves its third argument, if given, instead of the served file.
json_text() { sed 's/\\/\\\\/g; s/"/\\"/g; s/	/\\t/g; s/\r/\\r/g' "$1" | awk '{ printf "%s\\n", $0 }'; }
printf '%s\n' '{a, b} >= a' 'b >= L3' '{c, a} >= L5' 'c >= d' > "$obs_tmp/edge.cst"
serve_vs_solve() {
  grep -v '<=' "$1" > "$obs_tmp/lower.cst"
  sv_open="{\"op\":\"open\",\"problem\":\"p\",\"lattice\":\"$(json_text test/cli.t/fig1b.lat)\",\"constraints\":\"$(json_text "$obs_tmp/lower.cst")\"}"
  sv_got=$(printf '%s\n' "$sv_open" "{\"op\":\"resolve\",\"problem\":\"p\"$2}" \
    | dune exec -- mlsclassify serve | tail -n 1 \
    | sed 's/.*"solution":{//; s/}}$//' | tr ',' '\n' | sed 's/^"\(.*\)":"\(.*\)"$/\1 \2/')
  sv_want=$(dune exec -- mlsclassify solve -l test/cli.t/fig1b.lat -c "${3:-$1}" | awk '{ print $1, $2 }')
  test -n "$sv_want" && test "$sv_got" = "$sv_want" || {
    echo "ci: serve answered $1 with other levels than solve" >&2
    echo "$sv_got" >&2
    exit 1
  }
}
serve_vs_solve test/cli.t/employee.cst ',"bounds":{"name":"L4"}'
serve_vs_solve "$obs_tmp/edge.cst" ''
echo "ci: serve = solve OK (employee.cst; trivial, level and rhs-only lines)"
serve_vs_solve "$fe_policy" ',"bounds":{"name":"L4"}' test/cli.t/employee.cst
echo "ci: front-end smoke through serve OK (the CRLF/tab/comment rewrite opens as solve reads the original)"

# Trivial lines over serve: every line of an opened policy keeps its
# constraint id, trivially satisfied ones (rhs ∈ lhs) included.  The
# policy's first line and a middle one are trivial; removing the first,
# adding a trivial line, then removing the middle one and the kept line
# after it must act on exactly the lines they name (c falls to Low only
# once c >= b is gone).  The transcript is pinned byte for byte.
tr_lat='"lattice":"levels Low, Mid, High\nLow < Mid\nMid < High\n"'
tr_cst='"constraints":"{a, b} >= a\nb >= Mid\n{c, b} >= c\nc >= b\n{a, d} >= High\n"'
tr_req() { printf '{"op":"%s","problem":"t"%s}\n' "$1" "$2"; }
tr_out=$( {
  printf '{"op":"open","problem":"t",%s,%s}\n' "$tr_lat" "$tr_cst"
  tr_req resolve ''
  tr_req remove_constraint ',"id":0'
  tr_req add_constraint ',"constraint":"{d, b} >= d"'
  tr_req resolve ',"stats":true'
  tr_req remove_constraint ',"id":0'
  tr_req remove_constraint ',"id":2'
  tr_req remove_constraint ',"id":3'
  tr_req resolve ''
} | dune exec -- mlsclassify serve)
tr_want=$(cat <<'EOF'
{"v":1,"status":"ok","problem":"t"}
{"v":1,"status":"ok","problem":"t","solution":{"a":"Low","b":"Mid","c":"Mid","d":"High"}}
{"v":1,"status":"ok","problem":"t","id":0}
{"v":1,"status":"ok","problem":"t","id":5}
{"v":1,"status":"ok","problem":"t","solution":{"a":"Low","b":"Mid","c":"Mid","d":"High"},"stats":{"lub":0,"glb":0,"leq":0,"minlevel_calls":0,"try_calls":0,"try_iterations":0,"constraint_checks":0}}
{"v":1,"status":"error","problem":"t","detail":"remove_constraint: unknown constraint id 0"}
{"v":1,"status":"ok","problem":"t","id":2}
{"v":1,"status":"ok","problem":"t","id":3}
{"v":1,"status":"ok","problem":"t","solution":{"a":"Low","b":"Mid","c":"Low","d":"High"}}
EOF
)
test "$tr_out" = "$tr_want" || {
  echo "ci: the trivial-line serve transcript changed:" >&2
  echo "$tr_out" >&2
  exit 1
}
echo "ci: serve trivial lines OK (ids kept per line, pinned transcript)"

# Re-tightens through a Try cycle: the cycle {a, b, c} carries the
# complex chord {a, x} >= c, and the complex rows {b, y} and {c, x, y}
# and {z, u} reach across priority sets.  After first bounds on w, y, a,
# u and z, twenty re-tightens each resolve on the patch path, where the
# sets whose inputs changed are labeled again (the cycle by Try, the
# complex rows' last members by Minlevel) and every other set is reused.
# The final reply must equal `mlsclassify solve` of the policy with the
# final bounds as its last lines, in first-set order.
printf '%s\n' 'a >= b' 'b >= c' 'c >= a' '{a, x} >= c' '{b, y} >= L4' \
  '{c, x, y} >= L5' 'x >= w' 'z >= a' '{z, u} >= L6' 'u >= y' > "$obs_tmp/chord.cst"
rt_open="{\"op\":\"open\",\"problem\":\"rt\",\"lattice\":\"$(json_text test/cli.t/fig1b.lat)\",\"constraints\":\"$(json_text "$obs_tmp/chord.cst")\"}"
rt_bound() { printf '{"op":"set_lower_bound","problem":"rt","attr":"%s","level":"%s"}\n' "$1" "$2"; }
rt_out=$( {
  printf '%s\n' "$rt_open"
  for b in 'w L2' 'y L3' 'a L1' 'u L2' 'z L1'; do rt_bound $b; done
  echo '{"op":"resolve","problem":"rt"}'
  for b in 'w L5' 'a L3' 'y L2' 'u L6' 'z L4' 'a L2' 'w L1' 'y L5' 'a L6' 'u L1' \
    'z L3' 'w L4' 'a L1' 'y L1' 'u L5' 'a L5' 'z L2' 'w L3' 'y L4' 'a L4'; do
    rt_bound $b
    echo '{"op":"resolve","problem":"rt"}'
  done
} | dune exec -- mlsclassify serve --trace "$obs_tmp/retighten.json")
echo "$rt_out"
test "$(grep -o '"path":"patch"' "$obs_tmp/retighten.json" | wc -l)" = 20 || {
  echo "ci: the twenty re-tightens did not each take the patch path" >&2
  exit 1
}
cp "$obs_tmp/chord.cst" "$obs_tmp/chord-final.cst"
printf '%s\n' 'w >= L3' 'y >= L4' 'a >= L4' 'u >= L5' 'z >= L2' >> "$obs_tmp/chord-final.cst"
rt_got=$(echo "$rt_out" | tail -n 1 | sed 's/.*"solution":{//; s/}}$//' | tr ',' '\n' \
  | sed 's/^"\(.*\)":"\(.*\)"$/\1 \2/')
rt_want=$(dune exec -- mlsclassify solve -l test/cli.t/fig1b.lat -c "$obs_tmp/chord-final.cst" \
  | awk '{ print $1, $2 }')
test -n "$rt_want" && test "$rt_got" = "$rt_want" || {
  echo "ci: twenty re-tightens through a Try cycle diverged from solve" >&2
  echo "$rt_got" >&2
  exit 1
}
echo "ci: serve re-tightens OK (20 patch resolves through a Try cycle = solve)"

# Reply runs: serve keeps a session's last solution reply as runs of 64
# attributes and renders again only the runs whose attributes or levels
# changed.  Over 69 attributes (a run and five more), after first bounds,
# re-tightens change no level (A50 set again to its bound), one level
# (A50), ten levels (A0 and the chain A1..A9 above it) and three in the
# last run (A65..A67); then 60 names are added, with a resolve after the
# first (which extends the second run) and after the last (which opens a
# third run, bounded so that it holds a level above the bottom).  Every
# resolve reply must equal `mlsclassify solve` of the same policy: the
# attributes in session order, the constraints, then the bounds in
# first-set order.
{
  for i in $(seq 1 9); do echo "A$i >= A$((i - 1))"; done
  printf '%s\n' 'A66 >= A65' 'A67 >= A66' 'A20 >= L3' 'A40 >= L2' 'A68 >= L4' '{A30, A31} >= L5'
} > "$obs_tmp/runs-body.cst"
rr_a=$(seq 0 68 | sed 's/^/A/')
rr_b=$(seq 0 59 | sed 's/^/B/')
rr_policy() {
  echo "attrs $(echo "$1" | paste -sd, - | sed 's/,/, /g')"
  cat "$obs_tmp/runs-body.cst"
  printf '%b' "$2"
}
rr_policy "$rr_a" '' > "$obs_tmp/runs.cst"
rr_req() { printf '{"op":"%s","problem":"runs"%s}\n' "$1" "$2"; }
rr_bound() { rr_req set_lower_bound ",\"attr\":\"$1\",\"level\":\"$2\""; }
rr_out=$( {
  printf '{"op":"open","problem":"runs","lattice":"%s","constraints":"%s"}\n' \
    "$(json_text test/cli.t/fig1b.lat)" "$(json_text "$obs_tmp/runs.cst")"
  rr_bound A0 L2; rr_bound A65 L3; rr_bound A50 L2; rr_req resolve ''
  rr_bound A50 L2; rr_req resolve ''
  rr_bound A50 L3; rr_req resolve ''
  rr_bound A0 L4; rr_req resolve ''
  rr_bound A65 L5; rr_req resolve ''
  for b in $rr_b; do
    rr_req add_attribute ",\"attr\":\"$b\""
    test "$b" = B0 && rr_req resolve ''
  done
  rr_bound B59 L2; rr_req resolve ''
} | dune exec -- mlsclassify serve)
rr_k=0
for step in "$rr_a|A0 >= L2\nA65 >= L3\nA50 >= L2\n" "$rr_a|A0 >= L2\nA65 >= L3\nA50 >= L2\n" \
  "$rr_a|A0 >= L2\nA65 >= L3\nA50 >= L3\n" "$rr_a|A0 >= L4\nA65 >= L3\nA50 >= L3\n" \
  "$rr_a|A0 >= L4\nA65 >= L5\nA50 >= L3\n" "$rr_a
B0|A0 >= L4\nA65 >= L5\nA50 >= L3\n" "$rr_a
$rr_b|A0 >= L4\nA65 >= L5\nA50 >= L3\nB59 >= L2\n"; do
  rr_k=$((rr_k + 1))
  rr_policy "${step%%|*}" "${step#*|}" > "$obs_tmp/runs-step.cst"
  rr_got=$(echo "$rr_out" | grep '"solution"' | sed -n "${rr_k}p" \
    | sed 's/.*"solution":{//; s/}}$//' | tr ',' '\n' | sed 's/^"\(.*\)":"\(.*\)"$/\1 \2/')
  rr_want=$(dune exec -- mlsclassify solve -l test/cli.t/fig1b.lat -c "$obs_tmp/runs-step.cst" \
    | awk '{ print $1, $2 }')
  test -n "$rr_want" && test "$rr_got" = "$rr_want" || {
    echo "ci: serve reply $rr_k over reply runs differs from solve" >&2
    echo "$rr_got" >&2
    exit 1
  }
done
test "$rr_k" = "$(echo "$rr_out" | grep -c '"solution"')" || {
  echo "ci: the reply-runs transcript answered another number of solutions" >&2
  exit 1
}
echo "ci: serve reply runs OK (7 resolves over 69 to 129 attributes = solve)"

# Benchmark correctness smoke: one traced second of each workload.
# serve-edit checks every serve reply against its own mirror of the
# policy (each resolve equals a scratch solve of the mirror, ack ids
# match, infeasible replies are exactly the planted ones); batch-cyclic
# checks every engine solution against a verified sequential solve, with
# one worker domain per core; classify-acyclic checks every reply to an
# 8k-attribute policy, which gates the policy scanner on that shape.
# Each validates its trace (batch-cyclic's cycles are simple-only, so
# its trace holds a collapse span per cyclic set, on every worker's
# track), exits 1 and reports
# "correct":false on any mismatch.  Only correctness is gated here, never
# a timing.
for workload in classify-acyclic serve-edit batch-cyclic; do
  bench_out=$(sh perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 1) || {
    echo "ci: $workload benchmark exited with an error" >&2
    exit 1
  }
  echo "$bench_out" | tail -n 1 | grep -q '^{"correct":true,' || {
    echo "ci: $workload benchmark results were not correct" >&2
    exit 1
  }
  echo "ci: $workload smoke OK (every result matches its reference)"
done

# Fault-injection gate: planting an unexpected runtime fault of each kind
# (raise / virtual-clock stall / step-budget blowout) into the supervised
# batch property must make every case fail, with each failure isolated to
# its case and shrunk to a reproducer — the harness proving it catches
# engine-level misbehavior, not just wrong levels.
for kind in raise stall blowout; do
  out=$(dune exec -- mlsclassify selfcheck --seed 42 --cases 3 --jobs 2 \
    --inject-fault "$kind" 2>&1) && {
    echo "ci: selfcheck --inject-fault $kind was not caught" >&2
    exit 1
  }
  echo "$out" | grep -q 'property=supervised' || {
    echo "ci: --inject-fault $kind failures not attributed to supervision" >&2
    exit 1
  }
  echo "$out" | grep -q 'repro (shrunk)' || {
    echo "ci: --inject-fault $kind failures were not shrunk" >&2
    exit 1
  }
  echo "ci: inject-fault $kind caught, isolated, and shrunk"
done

echo "ci: OK"
