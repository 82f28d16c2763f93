#!/bin/sh
# Tier-1 verification: build everything, run the full test suite, and run
# the guard-rails demo through the CLI in both diagnostic modes.
# Formatting is checked only when ocamlformat is actually installed.
set -eu
cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "== golden suite =="
# the golden harness lives inside dune runtest; re-run just that binary so
# a golden drift is reported even when someone trims the runtest alias
dune exec test/test_main.exe -- test golden >/dev/null

echo "== golden byte-exact =="
# the harness above matches numbers at 1e-9; the CLI's stdout on every
# example must also equal its golden file byte for byte
for f in examples/sharpe/*.sharpe examples/pepa/*.sharpe; do
  golden="test/golden/$(basename "$f" .sharpe).out"
  ./_build/default/bin/sharpe.exe "$f" 2>/dev/null | cmp -s - "$golden" || {
    echo "ci: $f output differs from $golden" >&2
    exit 1
  }
done

echo "== golden no-cache byte-exact =="
# the same files cold: every solve cache (skeleton, rate key, instance)
# is an optimisation only and must never change an answer
for f in examples/sharpe/*.sharpe examples/pepa/*.sharpe; do
  golden="test/golden/$(basename "$f" .sharpe).out"
  ./_build/default/bin/sharpe.exe --no-cache "$f" 2>/dev/null | cmp -s - "$golden" || {
    echo "ci: $f output under --no-cache differs from $golden" >&2
    exit 1
  }
done

echo "== bench smoke =="
# quick pass over every paper experiment (the slow E7 and E23 skipped);
# the bench binary exits nonzero when an experiment raises or a solver
# emitted an error-severity diagnostic, which aborts the build under set -e
dune exec bench/main.exe -- --quick >/dev/null

echo "== perfbench traced smoke =="
# short traced runs of the sweep and large workloads: every answer is
# checked against the workload's oracle and the layer replay (lower layers
# called directly) must agree with the program's output; either failure
# exits nonzero.  Stdout has one `name value unit` line per metric.
pbout="${TMPDIR:-/tmp}/sharpe_ci_perfbench_$$.txt"
perfbench_smoke() {
  bash perfbench/run.sh --workload "$1" --seed 1 --seconds "$2" --trace 1 >"$pbout" || {
    echo "ci: perfbench $1 run failed its answer or replay checks" >&2
    exit 1
  }
}
metric() { awk -v k="$1" '$1 == k { print $2 }' "$pbout"; }
# 3 s gives each third (untraced, traced at jobs=nproc, traced at jobs=1)
# 1 s; nproc * pool.scaling_eff is the jobs=nproc speedup over jobs=1.
perfbench_smoke sweep 3
# On a multi-core host the sweep must execute on >1 domain (measured, not
# the clamp value) and must not lose to serial beyond a 10% noise margin.
if [ "$(nproc)" -gt 1 ]; then
  domains=$(metric pool.distinct_domains)
  awk -v d="$domains" 'BEGIN { exit !(d > 1) }' || {
    echo "ci: sweep at jobs=$(nproc) ran on '$domains' domain(s)" >&2
    exit 1
  }
  eff=$(metric pool.scaling_eff)
  awk -v n="$(nproc)" -v e="$eff" 'BEGIN { exit !(e != "" && n * e >= 0.9) }' || {
    echo "ci: sweep speedup over jobs=1 is $(nproc) x '$eff', below 0.9" >&2
    exit 1
  }
fi
perfbench_smoke large 1
dense=$(metric linsolve.dense_materializations)
[ "$dense" = 0 ] || {
  echo "ci: large run reports '$dense' dense materializations per op" >&2
  exit 1
}
rm -f "$pbout"

echo "== guard-rails demo =="
demo=examples/sharpe/fallback_demo.sharpe
out=$(dune exec bin/sharpe.exe -- --diagnostics json "$demo")
echo "$out" | grep -q '"severity":"fallback"'
echo "$out" | grep -q '"severity":"warning"'
# the warning must flip the exit code to 2 under --strict
if dune exec bin/sharpe.exe -- --strict "$demo" >/dev/null 2>&1; then
  echo "ci: expected --strict to fail on $demo" >&2
  exit 1
else
  status=$?
  [ "$status" -eq 2 ] || { echo "ci: expected exit 2, got $status" >&2; exit 1; }
fi

echo "== differential selfcheck =="
# fixed-seed sweep: 200 random models per oracle pair, every model
# evaluated by two independent engines; any disagreement or engine error
# is an error diagnostic and a nonzero exit.  Harness runtime and
# counters land in BENCH_check.json.
./_build/default/bin/sharpe.exe --selfcheck=200 --seed 1 \
  --selfcheck-bench BENCH_check.json
grep -q '"discrepancies": 0' BENCH_check.json || {
  echo "ci: selfcheck bench reports discrepancies" >&2
  exit 1
}
# the PEPA front-end oracle (translated vs hand-composed product CTMC)
# must have been part of the sweep
grep -q '"name": "pepa-vs-product"' BENCH_check.json || {
  echo "ci: selfcheck bench is missing the pepa-vs-product pair" >&2
  exit 1
}
# the harness must also be able to FAIL: perturb one engine and demand a
# nonzero exit plus a diagnostic carrying the reproducing seed
if inject_out=$(./_build/default/bin/sharpe.exe --selfcheck=5 --seed 1 \
  --selfcheck-inject acyclic-vs-uniformization --diagnostics json 2>/dev/null); then
  echo "ci: expected injected selfcheck to fail" >&2
  exit 1
else
  status=$?
  [ "$status" -eq 1 ] || { echo "ci: expected exit 1, got $status" >&2; exit 1; }
  echo "$inject_out" | grep -q 'seed=' || {
    echo "ci: injected discrepancy lacks a reproducing seed" >&2
    exit 1
  }
fi

echo "== large-model selfcheck =="
# fixed-seed sweep of the Krylov tier: 13 models per large pair (52 total,
# 10^4-10^5 states each), forced Krylov engines vs forced classic oracles,
# capped by --timeout so a solver regression cannot hang CI.  A nonzero
# exit (discrepancy, engine error, or deadline) aborts the build.
./_build/default/bin/sharpe.exe --selfcheck-large=13 --seed 1 \
  --timeout 600 --selfcheck-bench BENCH_check_large.json
grep -q '"discrepancies": 0' BENCH_check_large.json || {
  echo "ci: large-model selfcheck bench reports discrepancies" >&2
  exit 1
}

echo "== server smoke =="
# start sharped on a temp socket, hit it with concurrent clients running
# distinct examples, verify every output against the golden files, check
# the daemon accumulated zero error diagnostics, and shut down cleanly
sock="${TMPDIR:-/tmp}/sharpe_ci_$$.sock"
smokedir="${TMPDIR:-/tmp}/sharpe_ci_$$"
mkdir -p "$smokedir"
# binaries were built by `dune build` above; run them directly so
# concurrent clients do not contend for the dune build lock
./_build/default/bin/sharped.exe --socket "$sock" --workers 4 &
daemon=$!
trap 'kill $daemon 2>/dev/null; rm -rf "$smokedir" "$sock"' EXIT
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "ci: sharped did not come up" >&2; exit 1; }
  sleep 0.1
done
examples="molloy software mmmb cmmp database overlap pfqn916 wfs"
clients=""
for ex in $examples; do
  ./_build/default/bin/sharpec.exe --socket "$sock" \
    eval "examples/sharpe/$ex.sharpe" > "$smokedir/$ex.out" &
  clients="$clients $!"
done
for pid in $clients; do
  wait "$pid" || { echo "ci: a server smoke client failed" >&2; exit 1; }
done
for ex in $examples; do
  if ! cmp -s "$smokedir/$ex.out" "test/golden/$ex.out"; then
    echo "ci: server output for $ex differs from golden" >&2
    diff "test/golden/$ex.out" "$smokedir/$ex.out" | head >&2
    exit 1
  fi
done
# the selfcheck request goes through the same worker pool; a clean run
# reports clean:true (sharpec exits 1 otherwise) and leaves the daemon's
# error-diagnostic counter at zero
./_build/default/bin/sharpec.exe --socket "$sock" selfcheck 25 1 >/dev/null || {
  echo "ci: daemon selfcheck failed" >&2
  exit 1
}
stats=$(./_build/default/bin/sharpec.exe --socket "$sock" stats)
echo "$stats" | grep -q '"error_diagnostics":0' || {
  echo "ci: daemon recorded error diagnostics: $stats" >&2
  exit 1
}
./_build/default/bin/sharpec.exe --socket "$sock" shutdown
i=0
while kill -0 $daemon 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "ci: sharped did not shut down" >&2; exit 1; }
  sleep 0.1
done
wait $daemon 2>/dev/null || true
trap - EXIT
rm -rf "$smokedir" "$sock"

echo "== chaos soak =="
# fixed-seed fault-injection soak: 16 concurrent clients replay the
# golden workload against an in-process daemon with injected worker
# crashes and slowdowns, malformed frames, mid-request disconnects and
# session churn.  The harness exits nonzero on any daemon crash,
# non-structured failure, non-golden successful output, session-cap
# overflow or unbounded RSS.  It then runs the crash-recovery soak:
# SIGKILL a journaled sharped (--fsync always) mid-load, restart it on
# the same journal directory, and demand every acknowledged bind reads
# back, a pre-crash model answers bit-identically, a pre-crash
# request_id replays its recorded response, and SIGTERM drains to exit
# 0.  Recovery metrics land in BENCH_server.json.
./_build/default/bench/main.exe --chaos --seconds 5 --clients 16 --seed 1
grep -q '"recovery_time_ms"' BENCH_server.json || {
  echo "ci: crash-recovery soak did not record recovery_time_ms" >&2
  exit 1
}
grep -q '"journal_bytes"' BENCH_server.json || {
  echo "ci: crash-recovery soak did not record journal_bytes" >&2
  exit 1
}

echo "ci: OK"
