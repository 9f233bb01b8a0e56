package dist

import (
	"fmt"
	"math"

	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/trace"
)

// CT is the conventional distributed Cooley-Tukey 1D FFT (Fig. 1 of the
// paper): the highest-level N = P x M decomposition executed across P ranks
// with THREE all-to-all exchanges — the transpose in, the transpose between
// the P-point and M-point passes, and the transpose out to natural order.
// It is the baseline the paper's performance model charges 3*T_mpi(N),
// standing in for MKL's distributed FFT.
type CT struct {
	comm   mpi.Comm
	n      int // total length
	m      int // per-rank length N/P
	fp     *fft.Batch
	fm     *fft.SixStep // M-point local FFT (nil -> fmPl)
	fmPl   *fft.Plan    // M-point local FFT for the lengths the six-step does not take
	twA    []complex128 // dynamic-block twiddle tables for W_N^{j2*k1}
	twB    []complex128
	twK    int
	rowsPP int // M/P: rows of the transposed matrix owned per rank

	Breakdown *trace.Breakdown
}

// NewCT builds the distributed Cooley-Tukey plan for total length n over
// the communicator's world. n must be divisible by P*P (each rank owns
// M/P rows of the transposed matrix).
func NewCT(c mpi.Comm, n int, workers int) (*CT, error) {
	world := c.Size()
	if n%world != 0 || (n/world)%world != 0 {
		return nil, fmt.Errorf("dist: CT needs P^2 | N (N=%d, P=%d)", n, world)
	}
	m := n / world
	fp, err := fft.NewBatch(world, workers)
	if err != nil {
		return nil, err
	}
	ct := &CT{comm: c, n: n, m: m, fp: fp, rowsPP: m / world}
	if fm, err := fft.NewSixStep(m, fft.SixStepOpt, workers); err == nil {
		ct.fm = fm
	} else {
		pl, err := fft.NewPlan(m)
		if err != nil {
			return nil, err
		}
		ct.fmPl = pl
	}
	// Dynamic block scheme for W_N^e, e in [0, N).
	k := 1
	for k*k < n {
		k <<= 1
	}
	ct.twK = k
	ct.twA = make([]complex128, k)
	for i := range ct.twA {
		ct.twA[i] = expi(-2 * math.Pi * float64(i) / float64(n))
	}
	nb := (n-1)/k + 1
	ct.twB = make([]complex128, nb)
	for b := range ct.twB {
		ct.twB[b] = expi(-2 * math.Pi * float64((b*k)%n) / float64(n))
	}
	return ct, nil
}

func expi(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// LocalN returns the per-rank block length N/P.
func (ct *CT) LocalN() int { return ct.m }

// Forward computes this rank's block of the in-order spectrum from its
// block of the input. dst must not alias src: rows are streamed out of src
// while dst fills in transposed order.
func (ct *CT) Forward(dst, src []complex128) error {
	if len(src) < ct.m || len(dst) < ct.m {
		return &ShapeError{What: "CT buffers too short", Got: min(len(src), len(dst)), Want: ct.m}
	}
	src, dst = src[:ct.m], dst[:ct.m]
	world := ct.comm.Size()
	r := ct.comm.Rank()
	rows := ct.rowsPP // M/P rows of length P owned after transpose #1

	// All-to-all #1: global transpose P x M -> M x P. Rank r's row of A is
	// its input block; destination q needs columns j2 in [q*rows,(q+1)*rows).
	stopMPI := timer(ct.Breakdown, trace.PhaseExposedMPI)
	send := make([][]complex128, world)
	for q := 0; q < world; q++ {
		send[q] = src[q*rows : (q+1)*rows]
	}
	recv, err := mpi.AllToAll(ct.comm, send)
	stopMPI()
	if err != nil {
		return err
	}
	// Assemble B rows: B[j2local][j1] = A[j1][r*rows + j2local] = recv[j1][j2local].
	b := make([]complex128, rows*world)
	for j1 := 0; j1 < world; j1++ {
		blk := recv[j1]
		for j2 := 0; j2 < rows; j2++ {
			b[j2*world+j1] = blk[j2]
		}
	}

	// Local: P-point FFTs on each owned row, then twiddle by W_N^{j2*k1}.
	stopFFT := timer(ct.Breakdown, trace.PhaseLocalFFT)
	ct.fp.Transform(b, b, rows, world, fft.Forward)
	for j2 := 0; j2 < rows; j2++ {
		j2g := r*rows + j2
		row := b[j2*world : (j2+1)*world]
		// e = j2g*k1 mod N, advanced incrementally to avoid a division
		// per element.
		e := 0
		step := j2g % ct.n
		for k1 := 0; k1 < world; k1++ {
			row[k1] *= ct.twA[e%ct.twK] * ct.twB[e/ct.twK]
			e += step
			if e >= ct.n {
				e -= ct.n
			}
		}
	}
	stopFFT()

	// All-to-all #2: transpose M x P -> P x M. Destination k1 needs column
	// k1 of C restricted to my rows (a stride-P gather).
	stopMPI = timer(ct.Breakdown, trace.PhaseExposedMPI)
	send2 := make([][]complex128, world)
	for q := 0; q < world; q++ {
		blk := make([]complex128, rows)
		for j2 := 0; j2 < rows; j2++ {
			blk[j2] = b[j2*world+q]
		}
		send2[q] = blk
	}
	recv2, err := mpi.AllToAll(ct.comm, send2)
	stopMPI()
	if err != nil {
		return err
	}
	// Row k1 = r of D: D[r][j2] for global j2; source q held j2 in
	// [q*rows, (q+1)*rows).
	dRow := make([]complex128, ct.m)
	for q := 0; q < world; q++ {
		copy(dRow[q*rows:], recv2[q])
	}

	// Local: M-point FFT of the row: E[r][k2].
	stopFFT = timer(ct.Breakdown, trace.PhaseLocalFFT)
	eRow := make([]complex128, ct.m)
	if ct.fm != nil {
		ct.fm.Forward(eRow, dRow)
	} else {
		ct.fmPl.Forward(eRow, dRow)
	}
	stopFFT()

	// All-to-all #3: to natural order. Global index of E[r][k2] is
	// r + P*k2; destination q owns [q*M, (q+1)*M) => k2 in [q*M/P,
	// (q+1)*M/P), a contiguous slice of eRow.
	stopMPI = timer(ct.Breakdown, trace.PhaseExposedMPI)
	send3 := make([][]complex128, world)
	for q := 0; q < world; q++ {
		send3[q] = eRow[q*rows : (q+1)*rows]
	}
	recv3, err := mpi.AllToAll(ct.comm, send3)
	stopMPI()
	if err != nil {
		return err
	}
	// From source p: values X[p + P*k2], k2 in [r*rows, (r+1)*rows);
	// local position = p + P*k2 - r*M = p + P*(k2 - r*rows).
	stopEtc := timer(ct.Breakdown, trace.PhaseEtc)
	for p := 0; p < world; p++ {
		blk := recv3[p]
		for i, v := range blk {
			dst[p+world*i] = v
		}
	}
	stopEtc()
	return nil
}
