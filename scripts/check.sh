#!/bin/sh
# Tier-2 pre-PR gate: build, vet (with the arm64 and s390x cross-builds of
# the portable and big-endian file sets), one run of every command and
# example, the race-clean concurrency gate over the packages that spawn
# goroutines, the fuzz smoke, the twiddle-table and vector-kernel timing
# ratios, and the catch matrix that says what each of those gates is for. Tier-1 (go build ./...
# && go test ./...) must of course also pass; this script layers the
# discipline checks on top.
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
# internal/conv and internal/fft have amd64 assembler kernels beside their
# portable Go twins, and internal/cpu an amd64 probe; cross-building
# (offline: the toolchain carries every target) keeps the portable file sets
# compiling, and vet checks them where no .s shadows them — and internal/soi,
# which reaches the kernels' entry points through them.
run_gate "arm64 cross-build (portable file set)" sh -c 'GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/conv ./internal/fft ./internal/cpu ./internal/soi'
# Payloads cross the sockets as the vector's own memory where the host is
# little-endian; s390x is big-endian, so this build is the one that compiles
# the byte-order loops of internal/cvec as the path a host takes.
run_gate "s390x cross-build (big-endian byte image)" sh -c 'GOARCH=s390x go build ./... && GOARCH=s390x go vet ./internal/cvec ./internal/wire ./internal/mpi ./internal/codec'
# Every command and example runs once with small arguments and must exit 0;
# otherwise a driver that breaks or drifts is caught by nothing but `go
# build`. gfft exits 1 when its forward result is off the serial FFT by more
# than 1e-6, soibench -verify and the examples fail on their own checks.
# soifftd is left out: the serve tests and bench/soiperf start it.
entry_points() {
    bin=$(mktemp -d) || return 1
    go build -o "$bin/" ./cmd/gfft ./cmd/soibench ./cmd/perfmodel \
        ./examples/quickstart ./examples/spectrum ./examples/tcpcluster || { rm -rf "$bin"; return 1; }
    rc=0
    for run in "gfft -n 28672 -ranks 4" "gfft -n 28672 -ranks 4 -exact" \
        "soibench -table 1,2,3 -fig 3,8,9,12 -verify" "perfmodel" \
        "quickstart" "spectrum" "tcpcluster"; do
        # $run is split into the command and its arguments on purpose.
        # shellcheck disable=SC2086
        if ! out=$("$bin"/$run 2>&1); then
            printf '%s\n' "$out"
            echo "entry point failed: $run"
            rc=1
        fi
    done
    rm -rf "$bin"
    return $rc
}
run_gate "entry points run" entry_points
run_gate "go test -race (concurrency gate)" go test -race . ./internal/par ./internal/conv ./internal/fft ./internal/soi ./internal/mpi ./internal/dist ./internal/serve ./internal/wire ./client
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

# A Go stage or the naive six-step that computes its twiddles per element
# instead of reading the table keeps every answer within tolerance; only
# time shows it. The test compares each against a reference timed in the
# same process (a sine/cosine call, the optimized six-step), so host drift
# cancels; it times code, so tier-1 skips it and it runs here, by name.
run_gate "twiddle tables (within-run timing ratio)" go test ./internal/fft -run '^TestTwiddlesComeFromTables$' -count=1

# A convolution kernel ships only where it is at least 1.3x the next one
# down (avx512 over avx2, avx2 over portable); one that keeps its bits but
# loses its speed fails nothing else. Timed the same way, interleaved in one
# process; -v prints the kernels this host ran and their ratios.
run_gate "vector kernels pay (within-run timing ratio)" go test ./internal/conv -run '^TestVectorKernelsPay$' -count=1 -v

# Stage 4 runs cache-sized segments on the plain Stockham plan because it
# measured faster than the six-step there; an engine change that keeps the
# bits but loses that margin fails nothing else. Timed the same way, at the
# benchmark's M' = 2^16: the plain engine must be at least 1.10x the six-step.
run_gate "segment engine pays (within-run timing ratio)" go test ./internal/soi -run '^TestSegmentEnginePays$' -count=1 -v

# The catch matrix's dynamic rows (internal/analysis/matrix_rows_test.go,
# DESIGN.md section 7): each seeded defect is seeded again — as a build
# overlay, the tree is not written — and the recorded command of its first
# gate must still fail on it. Tier-1 checks that every seed applies and
# parses; this half compiles and tests one seeded tree per row, so it runs
# here, by name. Four rows at a time: most of them wait on a test timeout
# or the leak gate's grace period.
run_gate "catch matrix (dynamic rows)" go test ./internal/analysis -run '^TestCatchMatrixDynamic$' -count=1 -parallel 4

if [ -n "$failures" ]; then
    echo "check.sh: FAILED gates:$failures"
    exit 1
fi
echo "check.sh: all gates green"
