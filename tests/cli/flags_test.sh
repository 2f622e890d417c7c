#!/bin/sh
# Regression test for the `pml` argument parser. Every command reads argv
# through one flag table: an unknown flag, a stray token or a missing value
# is a usage error (exit 2); a malformed, partial, negative-where-unsigned
# or out-of-range number is a config error (exit 3). Also checks that the
# boolean switches still parse, that doctor takes the global --trace, that
# train and compile --metrics name their spans and counters, and that
# `pml stats` never overwrites the --metrics file it reads.
#
# Usage: flags_test.sh PML_BINARY SCRATCH_DIR
set -u
pml=$1
dir=$2
rm -rf "$dir" && mkdir -p "$dir" && cd "$dir" || exit 1
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# expect STATUS ARGS...: run `pml ARGS...` with empty stdin (killed after
# 60 s, so a daemon that wrongly starts cannot hang the test) and check its
# exit status.
expect() {
  want=$1
  shift
  timeout 60 "$pml" "$@" </dev/null >out.txt 2>err.txt
  got=$?
  if [ "$got" -ne "$want" ]; then
    fail "pml $* exited $got, expected $want"
    sed 's/^/  stderr: /' err.txt
  fi
}

expect 0 train --out m.json --exclude Frontera,MRI --trees 2 --threads 1 \
  --metrics tm.json
expect 0 compile --model m.json --cluster MRI --out t.json --metrics f.json
[ -f m.json ] && [ -f t.json ] && [ -f tm.json ] && [ -f f.json ] || {
  echo "FAIL: setup produced no model/table/metrics"
  exit 1
}
grep -q '"train":' tm.json || fail "train --metrics lists no train span"
grep -q '"dataset.cells":' tm.json ||
  fail "train --metrics lists no dataset.cells counter"
grep -q '"online.compile":' f.json ||
  fail "compile --metrics lists no online.compile span"

# Unknown flags, stray tokens and missing values: usage errors.
expect 2 train --out seed.json --exclude Frontera,MRI --trees 2 --seed 99
[ -f seed.json ] && fail "train --seed wrote seed.json"
expect 2 compile --model m.json --cluster MRI --out t2.json --thread 3
expect 2 clusters --bogus x
expect 2 clusters stray
expect 2 inspect --model
expect 2 doctor --dir
grep -q "missing value for --dir" err.txt ||
  fail "doctor --dir: stderr does not name the missing value"
expect 2 stats --metrics f.json --trace t3.json
expect 2 serve --stdio --bogus 1
expect 2 nonsense
expect 2
grep -q "usage: pml" err.txt || fail "pml with no command printed no usage"

# Malformed, partial, negative-where-unsigned and out-of-range numbers:
# config errors.
expect 3 train --out bad.json --exclude Frontera,MRI --trees 2 --threads 1x
expect 3 compile --model m.json --cluster MRI --out t2.json --threads 1x
expect 3 compile --model m.json --cluster MRI --out t2.json --nodes 2,4x
expect 3 query --table t.json --collective allgather --nodes 4abc --ppn 16 \
  --bytes 1024
expect 3 query --table t.json --collective allgather --nodes 4 --ppn 16 \
  --bytes -5
expect 3 query --table t.json --collective allgather --nodes 4 --ppn 16 \
  --bytes 18446744073709551616
expect 3 query --table t.json --collective allgather --nodes 2147483648 \
  --ppn 16 --bytes 1024
expect 3 dataset --out d.json --collective allgather --clusters MRI \
  --prune-epsilon 0.1x
expect 3 dataset --out d.json --collective allgather --clusters MRI --seed -1
expect 3 serve --stdio --max-line-bytes -1
expect 3 serve --stdio --capacity -1
expect 3 serve --port 70000

# Well-formed numbers still answer.
expect 0 query --table t.json --collective allgather --nodes 4 --ppn 16 \
  --bytes 1024
[ -s out.txt ] || fail "query printed no selection"

# Boolean switches.
expect 0 train --out h.json --exclude Frontera,MRI --trees 2 --threads 1 \
  --hierarchy
expect 0 dataset --out d.json --collective allgather --clusters MRI \
  --seed 99 --iterations 1 --audit --hierarchy
grep -q "audit:" out.txt || fail "dataset --audit printed no audit line"
mkdir arts && cp m.json arts/
expect 0 doctor --dir arts --strict --repair
expect 0 serve --stdio --model m.json

# doctor takes the global --trace; stats leaves its --metrics input alone.
expect 0 doctor --path m.json --trace doctor_trace.json
grep -q traceEvents doctor_trace.json 2>/dev/null ||
  fail "doctor --trace wrote no chrome trace"
cp f.json f.orig.json
expect 0 stats --metrics f.json
cmp -s f.json f.orig.json || fail "stats --metrics rewrote its input"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all flag checks passed"
