#!/bin/sh
# Repo CI: build everything and run the full test suite, then drive the
# CLI end to end.  Every gate is deterministic — counters, allocated
# words, clock reads, envelopes — so it passes or fails alike on any
# host.  The suite itself covers the engine's jobs parity on the
# benchmark batch shapes and the supervision cost (test_engine), and the
# session patch path's compile-free, allocation-bounded resolve
# (test_scaling).
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

# Pinned solver counters: Instr totals on one acyclic and one cyclic
# instance must equal their recorded values (exit 1 on any drift), so a
# change of data layout cannot silently change what the solver computes.
dune exec dev/counters_check.exe

# Differential self-check: a pinned-seed bounded run of the property
# harness (solver vs oracle/baselines/round-trips across all backends),
# which must include the session delta-parity and wire round-trip checks.
selfcheck_out=$(dune exec -- mlsclassify selfcheck --seed 42 --cases 60 --jobs 2)
echo "$selfcheck_out"
echo "$selfcheck_out" | grep -Eq 'checks:.* session=[1-9]' || {
  echo "ci: selfcheck did not exercise the session property" >&2
  exit 1
}
echo "$selfcheck_out" | grep -Eq 'checks:.* wire=[1-9]' || {
  echo "ci: selfcheck did not exercise the wire round-trip property" >&2
  exit 1
}

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
