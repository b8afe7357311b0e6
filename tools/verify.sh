#!/bin/sh
# Repo verification: build, full test suite, then a smoke fault-injection
# campaign (fixed seed, all three ISAs) that must hit the coverage bar,
# a watchdog check that a non-terminating kernel halts cleanly, an
# instrumented-run check that the observability counters are live, a
# profiler check (hot-region table, speedscope flame export, JSONL
# metrics series, --trace-cap validation), a dispatch-stats check
# that chaining and site sharing engage in every call style, a check
# that --stats counts the run's own crossings only, and a check that a
# malformed fuzz reproducer is rejected with a diagnostic, not a crash.
# The benchmark's own selftests run right after the test suite.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT INT TERM

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== benchmark selftests (block, Funcfirst, Specff rollback, Directed, Stride4 kill) =="
dune build @perfbench/benchcheck

echo "== lislint: shipped descriptions must be clean, all buildsets =="
dune exec bin/lisim.exe -- check --builtin all

echo "== lislint: the seeded bad spec must fail with its error codes =="
if dune exec bin/lisim.exe -- check examples >"$tmp" 2>&1; then
  echo "FAIL: lint of examples/lint_badspec.lis exited zero" >&2
  exit 1
fi
for code in L010 L040 L060 L070 L071 L072 L080 L081 L090 L091; do
  if ! grep -q "\[$code\]" "$tmp"; then
    echo "FAIL: seeded defect $code not reported" >&2
    cat "$tmp" >&2
    exit 1
  fi
done

echo "== lislint: --sarif must emit a SARIF 2.1.0 document =="
dune exec bin/lisim.exe -- check --sarif --builtin all >"$tmp"
if ! grep -q '"version":"2.1.0"' "$tmp"; then
  echo "FAIL: --sarif output is not SARIF 2.1.0" >&2
  head -c 400 "$tmp" >&2
  exit 1
fi
if ! grep -q '"automationDetails"' "$tmp"; then
  echo "FAIL: --sarif output has no per-unit automationDetails" >&2
  exit 1
fi

echo "== lislint: --suggest-buildset must print re-parseable buildsets =="
dune exec bin/lisim.exe -- check --suggest-buildset --builtin alpha >"$tmp" || true
if ! grep -q "^buildset " "$tmp"; then
  echo "FAIL: --suggest-buildset printed no buildset declaration" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== lislint: diagnostics must be byte-stable across runs =="
dune exec bin/lisim.exe -- check --json examples >"$tmp" 2>&1 || true
json2=$(mktemp)
dune exec bin/lisim.exe -- check --json examples >"$json2" 2>&1 || true
if ! cmp -s "$tmp" "$json2"; then
  rm -f "$json2"
  echo "FAIL: two identical check --json runs differ" >&2
  exit 1
fi
rm -f "$json2"

echo "== smoke injection campaign (seed 42, all ISAs) =="
dune exec bin/lisim.exe -- inject --isa all --seed 42 --rate 1e-3 \
  --sites reg,mem,pc,fault --min-coverage 95

echo "== watchdog: spin kernel must halt with a structured error =="
if dune exec bin/lisim.exe -- run --kernel spin --max-instructions 100000 \
    2>"$tmp"; then
  echo "FAIL: spin kernel terminated normally" >&2
  exit 1
fi
if ! grep -q "watchdog" "$tmp"; then
  echo "FAIL: spin kernel did not trip the watchdog" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== observability: instrumented run must report nonzero crossings =="
dune exec bin/lisim.exe -- run --kernel hash --stats >"$tmp"
if ! grep -E "synth\.entrypoint_calls +[1-9]" "$tmp" >/dev/null; then
  echo "FAIL: --stats reported no entrypoint crossings" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== profiler: hash kernel's inner loop must dominate the region table =="
dune exec bin/lisim.exe -- profile --kernel hash >"$tmp"
# the first data row is the hottest region; the hash inner loop owns the
# clear majority of retired instructions
top_share=$(awk 'NR==3 { sub(/%/, "", $3); print int($3) }' "$tmp")
if [ -z "$top_share" ] || [ "$top_share" -lt 50 ]; then
  echo "FAIL: profile top region share is ${top_share:-missing}%, expected >50%" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== profiler: --flame-out must write a speedscope document =="
flame=$(mktemp)
trap 'rm -f "$tmp" "$flame"' EXIT INT TERM
dune exec bin/lisim.exe -- profile --kernel hash --flame-out "$flame" >"$tmp"
if ! grep -q '"\$schema":"https://www.speedscope.app/file-format-schema.json"' \
    "$flame"; then
  echo "FAIL: flame output is not a speedscope document" >&2
  head -c 400 "$flame" >&2
  exit 1
fi
if ! grep -q '"profiles":' "$flame"; then
  echo "FAIL: flame output has no profiles array" >&2
  exit 1
fi

echo "== metrics: --metrics-out must emit a parseable JSONL series =="
metrics=$(mktemp)
trap 'rm -f "$tmp" "$flame" "$metrics"' EXIT INT TERM
dune exec bin/lisim.exe -- run --kernel hash --metrics-out "$metrics" \
  --metrics-interval 0 >"$tmp"
if ! [ -s "$metrics" ]; then
  echo "FAIL: metrics file is empty" >&2
  exit 1
fi
if ! head -1 "$metrics" | grep -q '^{"v":1,"seq":0,'; then
  echo "FAIL: metrics first line is not a v1 seq-0 snapshot" >&2
  head -1 "$metrics" >&2
  exit 1
fi
if ! grep -q '"counters":{' "$metrics"; then
  echo "FAIL: metrics snapshots carry no counters" >&2
  exit 1
fi

echo "== trace ring: --trace-cap 0 must be a usage error =="
if dune exec bin/lisim.exe -- run --kernel hash --trace-cap 0 \
    >/dev/null 2>"$tmp"; then
  echo "FAIL: --trace-cap 0 was accepted" >&2
  exit 1
fi
if ! grep -q -- "--trace-cap must be positive" "$tmp"; then
  echo "FAIL: --trace-cap 0 did not report the usage error" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== dispatch: every call style must chain and share sites on a hot loop =="
for bs in block_min one_min step_all; do
  dune exec bin/lisim.exe -- run --kernel sort -b "$bs" --stats >"$tmp"
  for counter in chain_taken site_cache_hits; do
    if ! grep -E "core\.block_cache\.$counter +[1-9]" "$tmp" >/dev/null; then
      echo "FAIL: $bs run reported zero $counter" >&2
      cat "$tmp" >&2
      exit 1
    fi
  done
done

echo "== stats: a One run counts one crossing per instruction, exit call included =="
dune exec bin/lisim.exe -- run --isa alpha --kernel hash_loop -b one_min --stats >"$tmp"
instrs=$(awk '/ instructions in / { print $1 }' "$tmp")
calls=$(awk '$1 == "synth.ep.do_in_one.calls" { print $2 }' "$tmp")
if [ -z "$instrs" ] || [ -z "$calls" ] || [ "$calls" -ne $((instrs + 1)) ]; then
  echo "FAIL: do_in_one.calls ${calls:-missing} for ${instrs:-missing} instructions" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== fuzz: a malformed reproducer must exit 2 with a diagnostic =="
repro=$(mktemp)
printf 'lisim-fuzz-repro v1\nisa tiny\nmax-instrs abc\ncode 0x0\nend\n' >"$repro"
for f in "$repro" "$repro.missing"; do
  rc=0
  dune exec bin/lisim.exe -- fuzz --isa tiny --replay "$f" >/dev/null 2>"$tmp" || rc=$?
  if [ "$rc" -ne 2 ] || grep -q "Fatal error" "$tmp"; then
    echo "FAIL: replay of $f exited $rc (want 2, no Fatal error)" >&2
    cat "$tmp" >&2
    rm -f "$repro"
    exit 1
  fi
done
rm -f "$repro"

echo "== absint: store-free gating must engage, and --no-absint disable it =="
dune exec bin/lisim.exe -- run --kernel hash --stats >"$tmp"
if ! grep -E "core\.absint_fastpath_classes +[1-9]" "$tmp" >/dev/null; then
  echo "FAIL: no instruction classes took the absint fast path" >&2
  cat "$tmp" >&2
  exit 1
fi
dune exec bin/lisim.exe -- run --kernel sort -b block_min --stats >"$tmp"
if ! grep -E "core\.block_cache\.stable_blocks +[1-9]" "$tmp" >/dev/null; then
  echo "FAIL: block engine marked no blocks stable on the sort kernel" >&2
  cat "$tmp" >&2
  exit 1
fi
dune exec bin/lisim.exe -- run --kernel sort -b block_min --stats \
  --no-absint >"$tmp"
if grep -E "core\.block_cache\.stable_blocks +[1-9]" "$tmp" >/dev/null; then
  echo "FAIL: stable blocks nonzero with --no-absint" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== fuzz: bounded healthy campaign must stay quiet (seed 42) =="
# per-ISA budgets sized to ~1-2s each at measured oracle throughput
for pair in alpha:600 arm:200 ppc:600 riscv:600 tiny:300; do
  isa=${pair%:*}
  budget=${pair#*:}
  dune exec bin/lisim.exe -- fuzz --isa "$isa" --seed 42 --budget "$budget"
done

echo "== fuzz: a seeded defect must be caught, shrunk and replayable =="
fuzzdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir"' EXIT INT TERM
if dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
    --mutate stride4 --out "$fuzzdir" >"$tmp" 2>&1; then
  echo "FAIL: stride4 mutation not detected" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q "shrunk to" "$tmp"; then
  echo "FAIL: divergence was not shrunk" >&2
  cat "$tmp" >&2
  exit 1
fi
repro=$(ls "$fuzzdir"/fuzz-tiny-*.repro)
if dune exec bin/lisim.exe -- fuzz --isa tiny --replay "$repro" >"$tmp" 2>&1; then
  echo "FAIL: reproducer replayed clean" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q "DIVERGES" "$tmp"; then
  echo "FAIL: replay did not report the divergence" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== super: supervised campaign must quarantine a seeded defect, exit 0 =="
superdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir" "$superdir"' EXIT INT TERM
dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
  --mutate stride4 --journal "$superdir/journal.jsonl" \
  --quarantine "$superdir/quarantine" >"$tmp"
if ! ls "$superdir"/quarantine/*.repro >/dev/null 2>&1; then
  echo "FAIL: supervised campaign quarantined no reproducer" >&2
  cat "$tmp" >&2
  exit 1
fi
if ! grep -q '"outcome":"quarantined"' "$superdir/journal.jsonl"; then
  echo "FAIL: journal records no quarantined case" >&2
  cat "$superdir/journal.jsonl" >&2
  exit 1
fi

echo "== super: quarantined cases must demote to the step_all reference =="
if ! grep -q '"level":"step_all"' "$superdir/journal.jsonl"; then
  echo "FAIL: no quarantined case degraded to step_all" >&2
  cat "$superdir/journal.jsonl" >&2
  exit 1
fi

echo "== super: --resume must skip every journaled case =="
dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
  --mutate stride4 --journal "$superdir/journal.jsonl" \
  --quarantine "$superdir/quarantine" --resume >"$tmp"
if ! grep -q "(0 executed, 50 resumed)" "$tmp"; then
  echo "FAIL: resume re-executed journaled cases" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== fleet: --jobs 4 must quarantine the exact bytes --jobs 1 does =="
fleetdir=$(mktemp -d)
trap 'rm -f "$tmp" "$flame" "$metrics"; rm -rf "$fuzzdir" "$superdir" "$fleetdir"' EXIT INT TERM
for j in 1 4; do
  dune exec bin/lisim.exe -- fuzz --isa tiny --seed 42 --budget 50 \
    --mutate stride4 --jobs "$j" --journal "$fleetdir/j$j.jsonl" \
    --quarantine "$fleetdir/q$j" >"$tmp"
done
d1=$(cd "$fleetdir/q1" && cat $(ls | sort) | cksum)
d4=$(cd "$fleetdir/q4" && cat $(ls | sort) | cksum)
if [ "$(ls "$fleetdir/q1" | sort)" != "$(ls "$fleetdir/q4" | sort)" ] \
  || [ "$d1" != "$d4" ]; then
  echo "FAIL: parallel quarantine diverges from sequential" >&2
  echo "  jobs=1: $d1" >&2
  echo "  jobs=4: $d4" >&2
  exit 1
fi

echo "== fleet: --jobs 4 must journal the same inject cells --jobs 1 does =="
for j in 1 4; do
  dune exec bin/lisim.exe -- inject --isa all --budget 20000 --jobs "$j" \
    --journal "$fleetdir/inject$j.jsonl" --quarantine "$fleetdir/iq$j" >"$tmp"
done
c1=$(grep '"kind":"case"' "$fleetdir/inject1.jsonl" | sort)
c4=$(grep '"kind":"case"' "$fleetdir/inject4.jsonl" | sort)
if [ "$(printf '%s\n' "$c1" | wc -l)" -ne 4 ] || [ "$c1" != "$c4" ]; then
  echo "FAIL: parallel inject journal diverges from sequential" >&2
  echo "  jobs=1:" >&2; printf '%s\n' "$c1" >&2
  echo "  jobs=4:" >&2; printf '%s\n' "$c4" >&2
  exit 1
fi

echo "== fleet: --jobs 0 must be rejected with exit 2 =="
if dune exec bin/lisim.exe -- fuzz --isa tiny --budget 1 --jobs 0 \
    >/dev/null 2>"$tmp"; then
  echo "FAIL: --jobs 0 accepted" >&2
  exit 1
fi
if ! grep -q "jobs must be a positive integer" "$tmp"; then
  echo "FAIL: --jobs 0 did not report a usage error" >&2
  cat "$tmp" >&2
  exit 1
fi

echo "== super: supervised run must agree with the plain run =="
dune exec bin/lisim.exe -- run --kernel sort -b block_min >"$tmp"
plain=$(grep -o "exit=[0-9]* output=.*" "$tmp" | head -1)
dune exec bin/lisim.exe -- run --kernel sort -b block_min --supervised >"$tmp"
supervised=$(grep -o "exit=[0-9]* output=.*" "$tmp" | head -1)
if [ "$plain" != "$supervised" ]; then
  echo "FAIL: supervised run disagrees with plain run" >&2
  echo "  plain:      $plain" >&2
  echo "  supervised: $supervised" >&2
  exit 1
fi

echo "verify: OK"
