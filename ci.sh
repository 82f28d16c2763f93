#!/bin/sh
# Tier-1 verification: build everything, run the full test suite, and run
# the guard-rails demo through the CLI in both diagnostic modes.
# Formatting is checked only when ocamlformat is actually installed.
set -eu
cd "$(dirname "$0")"

# test/test_golden.ml rewrites the goldens whenever UPDATE_GOLDEN is
# non-empty, after which every golden step would pass against the files
# it just wrote: refuse to run rather than check nothing
if [ -n "${UPDATE_GOLDEN:-}" ]; then
  echo "ci: UPDATE_GOLDEN is set; unset it (regenerate goldens with dune runtest alone)" >&2
  exit 1
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== BiCGStab rate-separation property over 1500 seeds =="
# a QCheck property draws fresh cases on every dune runtest; this one
# once failed for about 1 seed in 200, so run it on a fixed range of
# seeds and fail on any of them (its printer gives the exact failing
# system, row scales included)
idx=$(./_build/default/test/test_main.exe list |
  sed -n 's/^krylov *\([0-9]*\) *BiCGStab converges under extreme rate separation\.$/\1/p')
[ -n "$idx" ] || { echo "ci: BiCGStab rate-separation property not found" >&2; exit 1; }
seed=1
while [ "$seed" -le 1500 ]; do
  QCHECK_SEED=$seed ./_build/default/test/test_main.exe test krylov "$idx" >/dev/null 2>&1 || {
    echo "ci: BiCGStab rate-separation property fails at QCHECK_SEED=$seed" >&2
    exit 1
  }
  seed=$((seed + 1))
done

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "== unused exports =="
# every val of a library interface, those of nested signatures included,
# must be named somewhere but its own definition: more than once in its
# own .ml, or in another .ml
unused=""
for mli in $(find lib -name '*.mli' | sort); do
  ml="${mli%i}"
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    [ "$(grep -cw -- "$v" "$ml")" -le 1 ] || continue
    grep -rlw --include='*.ml' -- "$v" lib bin perfbench test |
      grep -qvx "$ml" || unused="$unused $mli:$v"
  done
done
[ -z "$unused" ] || {
  echo "ci: exported but never used:" >&2
  printf '  %s\n' $unused >&2
  exit 1
}

echo "== golden suite =="
# the golden harness lives inside dune runtest; re-run just that binary so
# a golden drift is reported even when someone trims the runtest alias
dune exec test/test_main.exe -- test golden >/dev/null

echo "== program round trip =="
# parse (print (parse src)) = parse src on the programs Pretty prints;
# run by name for the same reason as the golden suite
dune exec test/test_main.exe -- test roundtrip >/dev/null

# the harness above matches numbers at 1e-9; the CLI's stdout on every
# example must also equal its golden file byte for byte, in four runs:
# - no flags;
# - --no-cache: the same files cold, since every solve cache (the SRN
#   skeleton, the fault-tree BDD) is an optimisation only and must never
#   change an answer;
# - --jobs 2: loops fan out over the pool, the iterations one domain runs
#   share its model instances, and every domain keeps its own transient
#   iterate workspace, none of which may change an answer;
# - --jobs 2 --no-cache: those per-domain instances are then the only
#   cache left on the parallel path.
# test/programs holds programs the caches once answered wrongly or that
# once failed to finish, each beside its expected stdout (NAME.out); they
# are not examples, so the benchmark's suite workload does not run them.
for flags in "" "--no-cache" "--jobs 2" "--jobs 2 --no-cache"; do
  echo "== golden byte-exact${flags:+ under $flags} =="
  for f in examples/sharpe/*.sharpe examples/pepa/*.sharpe test/programs/*.sharpe; do
    case "$f" in
      test/programs/*) golden="${f%.sharpe}.out" ;;
      *) golden="test/golden/$(basename "$f" .sharpe).out" ;;
    esac
    # $flags unquoted on purpose: "--jobs 2" is two arguments, "" none
    ./_build/default/bin/sharpe.exe $flags "$f" 2>/dev/null | cmp -s - "$golden" || {
      echo "ci: $f output${flags:+ under $flags} differs from $golden" >&2
      exit 1
    }
  done
done

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
# BiCGStab's mean iterations per solve on the large chain: about 40 with
# the all-ones first shadow, 62-110 when the shadow was b (every solve
# rewound); above 55 the recursion is restarting again.
iters=$(metric linsolve.iterations.bicgstab_ilu0)
awk -v i="$iters" 'BEGIN { exit !(i != "" && i <= 55) }' || {
  echo "ci: large run averages '$iters' BiCGStab(ILU(0)) iterations per solve, above 55" >&2
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

echo "== input errors stay structured =="
# a character the lexer rejects is a parse error like any other: exit 1
# and an error record from the parser, not an uncaught exception (125)
bad="${TMPDIR:-/tmp}/sharpe_ci_illegal_$$.sharpe"
printf 'expr {2}\n' >"$bad"
if out=$(./_build/default/bin/sharpe.exe --diagnostics json "$bad" 2>/dev/null); then
  echo "ci: expected an illegal character to fail" >&2
  exit 1
else
  status=$?
  [ "$status" -eq 1 ] || { echo "ci: illegal character: expected exit 1, got $status" >&2; exit 1; }
fi
rm -f "$bad"
echo "$out" | grep -q '"severity":"error","solver":"parser"' || {
  echo "ci: illegal character did not yield a parser error record" >&2
  exit 1
}
# a statement ends its line: `expr 1 2` is a parse error, not two
# statements
short="${TMPDIR:-/tmp}/sharpe_ci_short_$$.sharpe"
printf 'expr 1 2\n' >"$short"
if out=$(./_build/default/bin/sharpe.exe --diagnostics json "$short" 2>/dev/null); then
  echo "ci: expected a statement short of its line to fail" >&2
  exit 1
else
  status=$?
  [ "$status" -eq 1 ] || { echo "ci: statement short of its line: expected exit 1, got $status" >&2; exit 1; }
fi
rm -f "$short"
echo "$out" | grep -q '"severity":"error","solver":"parser"' || {
  echo "ci: a statement short of its line did not yield a parser error record" >&2
  exit 1
}

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
# the same sweep on two domains must count and err exactly as on one:
# every line of its record but the wall-clock one equals BENCH_check.json
sc2="${TMPDIR:-/tmp}/sharpe_ci_selfcheck2_$$.json"
./_build/default/bin/sharpe.exe --selfcheck=200 --seed 1 --jobs 2 \
  --selfcheck-bench "$sc2" >/dev/null
grep -v '"elapsed_s"' BENCH_check.json >"$sc2.jobs1"
grep -v '"elapsed_s"' "$sc2" | cmp -s "$sc2.jobs1" - || {
  echo "ci: selfcheck at --jobs 2 differs from BENCH_check.json:" >&2
  grep -v '"elapsed_s"' "$sc2" | diff "$sc2.jobs1" - >&2
  exit 1
}
rm -f "$sc2" "$sc2.jobs1"
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
# exit (discrepancy, engine error, or deadline) aborts the build.  Every
# line of its record but the wall-clock one must equal
# BENCH_check_large.json, which pins each pair's worst error.
scl="${TMPDIR:-/tmp}/sharpe_ci_selfcheck_large_$$.json"
./_build/default/bin/sharpe.exe --selfcheck-large=13 --seed 1 \
  --timeout 600 --selfcheck-bench "$scl"
grep -q '"discrepancies": 0' "$scl" || {
  echo "ci: large-model selfcheck bench reports discrepancies" >&2
  exit 1
}
grep -v '"elapsed_s"' BENCH_check_large.json >"$scl.committed"
grep -v '"elapsed_s"' "$scl" | cmp -s "$scl.committed" - || {
  echo "ci: large-model selfcheck differs from BENCH_check_large.json:" >&2
  grep -v '"elapsed_s"' "$scl" | diff "$scl.committed" - >&2
  exit 1
}
rm -f "$scl" "$scl.committed"

echo "== server smoke =="
# start a journaled sharped on a temp socket, hit it with concurrent
# clients running distinct examples, verify every output against the
# golden files, check the daemon accumulated zero error diagnostics, and
# shut down cleanly; then restart it on the same journal directory
sock="${TMPDIR:-/tmp}/sharpe_ci_$$.sock"
smokedir="${TMPDIR:-/tmp}/sharpe_ci_$$"
mkdir -p "$smokedir"
# binaries were built by `dune build` above; run them directly so
# concurrent clients do not contend for the dune build lock
start_daemon() {
  ./_build/default/bin/sharped.exe --socket "$sock" --workers 4 \
    --journal-dir "$smokedir/journal" &
  daemon=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "ci: sharped did not come up" >&2; exit 1; }
    sleep 0.1
  done
}
stop_daemon() {
  ./_build/default/bin/sharpec.exe --socket "$sock" shutdown
  i=0
  while kill -0 $daemon 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "ci: sharped did not shut down" >&2; exit 1; }
    sleep 0.1
  done
  wait $daemon 2>/dev/null || true
}
trap 'kill $daemon 2>/dev/null; rm -rf "$smokedir" "$sock"' EXIT
start_daemon
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
# each example evaluated twice into a named session of its own: the
# second eval meets a warm instance cache across every redefinition and
# rebind of the first, and must print the golden output again
clients=""
for ex in $examples; do
  (
    for pass in 1 2; do
      ./_build/default/bin/sharpec.exe --socket "$sock" --session "warm-$ex" \
        eval "examples/sharpe/$ex.sharpe" > "$smokedir/$ex.warm$pass.out" || exit 1
    done
  ) &
  clients="$clients $!"
done
for pid in $clients; do
  wait "$pid" || { echo "ci: a warm-session client failed" >&2; exit 1; }
done
for ex in $examples; do
  for pass in 1 2; do
    if ! cmp -s "$smokedir/$ex.warm$pass.out" "test/golden/$ex.out"; then
      echo "ci: warm-session eval $pass of $ex differs from golden" >&2
      diff "test/golden/$ex.out" "$smokedir/$ex.warm$pass.out" | head >&2
      exit 1
    fi
  done
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
# a query is one expression: trailing tokens make it an eval_error, not
# the value of its first expression
./_build/default/bin/sharpec.exe --socket "$sock" bind qx x 5 >/dev/null || {
  echo "ci: bind for the query check failed" >&2
  exit 1
}
if q=$(./_build/default/bin/sharpec.exe --socket "$sock" query qx "x 2" 2>&1); then
  echo "ci: query 'x 2' was answered: $q" >&2
  exit 1
fi
echo "$q" | grep -q '"kind":"eval_error"' || {
  echo "ci: query 'x 2' is not an eval_error: $q" >&2
  exit 1
}
# a query answers the records its evaluation emitted in a diagnostics
# array, [] when there are none; sharpec prints only a query's value, so
# this request goes over the socket as a raw protocol line
qresp=$(python3 - "$sock" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"id":1,"op":"query","session":"qx","expr":"x"}\n')
print(s.makefile().readline().strip())
PY
)
echo "$qresp" | grep -q '"diagnostics":\[' || {
  echo "ci: a query response carries no diagnostics array: $qresp" >&2
  exit 1
}
stop_daemon
# a second daemon on the same journal directory rebuilds every warm
# session from its journaled evals alone; a third eval into each must
# print the golden output again
start_daemon
# the eight warm sessions and qx
health=$(./_build/default/bin/sharpec.exe --socket "$sock" health)
echo "$health" | grep -q '"recovered_sessions":9[,}]' || {
  echo "ci: the restarted daemon did not recover 9 sessions: $health" >&2
  exit 1
}
for ex in $examples; do
  ./_build/default/bin/sharpec.exe --socket "$sock" --session "warm-$ex" \
    eval "examples/sharpe/$ex.sharpe" > "$smokedir/$ex.warm3.out" || {
    echo "ci: eval into the recovered session warm-$ex failed" >&2
    exit 1
  }
  if ! cmp -s "$smokedir/$ex.warm3.out" "test/golden/$ex.out"; then
    echo "ci: eval 3 of $ex into its recovered session differs from golden" >&2
    diff "test/golden/$ex.out" "$smokedir/$ex.warm3.out" | head >&2
    exit 1
  fi
done
stop_daemon
trap - EXIT
rm -rf "$smokedir" "$sock"

echo "== chaos soak =="
# test/soak.ml, a fixed-seed (1) fault-injection soak: for 5 s, 16
# concurrent clients replay the golden workload against an in-process
# daemon with injected worker crashes and slowdowns, malformed frames,
# mid-request disconnects and session churn.  It exits nonzero on any
# daemon crash, non-structured failure, non-golden successful output,
# session-cap overflow or unbounded RSS.  It then runs the
# crash-recovery soak: SIGKILL a journaled sharped (--fsync always)
# mid-load, restart it on the same journal directory, and demand every
# acknowledged bind reads back, a pre-crash model answers
# bit-identically, a pre-crash request_id replays its recorded response,
# and SIGTERM drains to exit 0.  Recovery metrics land in
# BENCH_server.json in the working directory (the repo root).
./_build/default/test/soak.exe
grep -q '"recovery_time_ms"' BENCH_server.json || {
  echo "ci: crash-recovery soak did not record recovery_time_ms" >&2
  exit 1
}
grep -q '"journal_bytes"' BENCH_server.json || {
  echo "ci: crash-recovery soak did not record journal_bytes" >&2
  exit 1
}

echo "ci: OK"
