package dist

import (
	"runtime"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/ref"
	"soifft/internal/soi"
)

// TestForwardAllocationBudget: after warm-up a Forward allocates nothing in
// proportion to N. At the repository benchmark's parameters scaled to
// N = 7*2^12 a rank's working set is 0.9 MB and one all-to-all block 32
// KiB; the budget per Forward per rank is 16 KiB (before the plan-owned
// working set and the caller-buffer collectives: 1.6 MB in-process, 1.9 MB
// over TCP, and 28.9 MB at the benchmark's N), over an in-process world and
// over a TCP loopback mesh, with and without the race detector. A call
// measures 1.0-1.9 KB. A message that arrives before its receive is posted
// waits in a spare buffer of the receiving mailbox; the first time a box
// sees more early messages than it has spares, it makes one (16 or 32 KiB),
// which puts 1 in 10 runs at 3.0-6.1 KB.
func TestForwardAllocationBudget(t *testing.T) {
	const (
		world  = 2
		warmup = 4
		rounds = 16
		budget = 16 << 10
	)
	p := benchParams(12)
	opts := soi.DefaultOptions()
	opts.Workers = 1
	plan, err := soi.NewPlan(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := ref.RandomVector(p.N, 7)
	out := make([]complex128, p.N)
	localN := p.N / world

	w, err := mpi.NewWorld(world)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nodes := tcpMesh(t, world)
	for _, tr := range []struct {
		name string
		comm func(r int) mpi.Comm
	}{
		{"inproc", w.Comm},
		{"tcp", func(r int) mpi.Comm { return nodes[r] }},
	} {
		plans := make([]*SOI, world)
		for r := range plans {
			if plans[r], err = NewSOIFromPlan(tr.comm(r), plan); err != nil {
				t.Fatal(err)
			}
		}
		op := func() {
			err := eachRank(world, func(r int) error {
				return plans[r].Forward(out[r*localN:(r+1)*localN], x[r*localN:(r+1)*localN])
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warmup; i++ {
			op()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		perForward := (after.TotalAlloc - before.TotalAlloc) / (rounds * world)
		t.Logf("%s: %d bytes allocated per Forward per rank", tr.name, perForward)
		if perForward > budget {
			t.Errorf("%s: %d bytes allocated per Forward per rank, budget %d", tr.name, perForward, budget)
		}
	}
}
