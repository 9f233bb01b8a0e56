#!/bin/sh
# Tier-2 pre-PR gate: build, vet, repo-native static analysis, the compiler
# escape- and bounds-check-budget gates on the hot kernels, the race-clean
# concurrency gate over the packages that spawn goroutines, the fuzz smoke,
# and the catch matrix that says what each of those gates is for. Tier-1
# (go build ./... && go test ./...) must of course also pass; this script
# layers the discipline checks on top.
#
# Every gate runs even if an earlier one fails, so one CI run reports all
# broken gates; each gate prints its wall-clock time, and the script exits
# nonzero at the end if any gate failed.
#
# Run from anywhere inside the repo:
#
#   ./scripts/check.sh
cd "$(dirname "$0")/.." || exit 2

failures=""

run_gate() {
    name="$1"
    shift
    echo "== $name"
    start=$(date +%s)
    if "$@"; then
        status="ok"
    else
        status="FAIL"
        failures="$failures '$name'"
    fi
    end=$(date +%s)
    echo "-- $name: $status ($((end - start))s)"
}

run_gate "go build ./..." go build ./...
run_gate "go vet ./..." go vet ./...
# internal/conv has an amd64 assembler kernel beside its portable Go one;
# cross-building (offline: the toolchain carries every target) keeps the
# portable file set compiling, and vet checks it where no .s shadows it.
run_gate "arm64 cross-build (portable file set)" sh -c 'GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/conv'
# The combined run doubles as the hard per-analyzer wall-time gate: an
# analyzer over its checked-in budget (or a budget entry out of sync with
# the suite) fails CI even with zero findings. Every finding is printed
# with its [check] name, so a regression names the analyzer that fired.
run_gate "soilint ./..." go run ./cmd/soilint -timing-budget-file timing_budget.json ./...
run_gate "escapebudget (hot-kernel escape gate)" go run ./cmd/escapebudget
run_gate "bcebudget (bounds-check gate)" go run ./cmd/bcebudget
run_gate "go test -race (concurrency gate)" go test -race ./internal/par ./internal/conv ./internal/soi ./internal/mpi ./internal/cluster ./internal/dist ./internal/serve ./internal/wire ./client
run_gate "go test -race (fault-injection sweep)" go test -race ./internal/faultcomm ./internal/testutil

# Fuzz smoke: each untrusted decode surface gets a brief randomized pass
# beyond the checked-in corpus — the wire frame codec and the payload block
# codecs — and the word-wise deltaplane kernels a differential pass against
# their byte-loop reference. `go test -fuzz` accepts exactly one target per
# invocation, hence one gate per target.
for target in FuzzReadHeader FuzzReadVector FuzzFrameSequence; do
    run_gate "fuzz smoke $target" go test ./internal/wire -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done
for target in FuzzCodecRoundTrip FuzzCodecDecode FuzzKernelsMatchReference; do
    run_gate "fuzz smoke $target" go test ./internal/codec -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done

# The catch matrix's dynamic rows (internal/analysis/matrix_rows_test.go,
# DESIGN.md section 7): each seeded defect whose first catcher is a test, a
# budget tool or -race is seeded again — as a build overlay, the tree is not
# written — and the recorded command must still fail on it. Tier-1 runs the
# static half (which analyzers fire on each seed); this half compiles and
# tests one seeded tree per row, so it runs here, by name. Four rows at a
# time: most of them wait on a test timeout or the leak gate's grace period.
run_gate "catch matrix (dynamic rows)" go test ./internal/analysis -run '^TestCatchMatrixDynamic$' -count=1 -parallel 4

if [ -n "$failures" ]; then
    echo "check.sh: FAILED gates:$failures"
    exit 1
fi
echo "check.sh: all gates green"
