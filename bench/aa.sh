#!/bin/sh
# A/A check: measure the same commit as two sides, a and b, and require that
# they agree, per workload and end-to-end metric, within the bounds
# BENCHMARK.json fixes, with no failed or wrong operation on either side. A
# benchmark that cannot reproduce itself cannot judge a change.
#
#   bench/aa.sh [reps] [seconds] [seed]
#
# Each side is `reps` full result sets (default 3; every workload, both
# passes; seeds seed, seed+1, ...; default window BENCHMARK.json's
# run_seconds), taken alternately (a1 b1 a2 b2 ...) so that a slow drift of
# the host reaches both sides. A side's value is the median of its sets. All
# sets are kept as bench/results/aa-{a,b}<n>.json (git-ignored); the first
# passing pair was checked in as bench/results/baseline-{a,b}.json. Exits
# non-zero on any miss.
set -eu
cd "$(dirname "$0")/.."

reps=${1:-3}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
seed=${3:-1}
mkdir -p bench/results .bench_build
go build -o .bench_build/soiperf ./bench/soiperf
go build -o .bench_build/soifftd ./cmd/soifftd

status=0
a="" b=""
n=1
while [ "$n" -le "$reps" ]; do
    for side in a b; do
        out="bench/results/aa-$side$n.json"
        echo "== side $side, set $n: all workloads, both passes, $seconds s windows, seed $((seed + n - 1))"
        .bench_build/soiperf -seconds "$seconds" -seed "$((seed + n - 1))" -soifftd .bench_build/soifftd \
            -out "$out" >"${out%.json}.txt" || status=1
        grep '^# all workloads' "${out%.json}.txt" || true
        eval "$side=\"\$$side $out\""
    done
    n=$((n + 1))
done
# shellcheck disable=SC2086 # the lists are meant to split into file names
.bench_build/soiperf -compare $a $b || status=1
exit $status
