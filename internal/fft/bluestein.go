package fft

import (
	"fmt"
	"math"
)

// bluestein implements the chirp-z transform: an arbitrary-length DFT
// expressed as one circular convolution of power-of-two length m >= 2n-1.
// It is the fallback for lengths whose largest prime factor exceeds
// maxRadix, which keeps Plan total work at O(n log n) for every n —
// needed because SOI produces local FFT lengths like M' = mu*M that are not
// always smooth.
type bluestein struct {
	n, m  int
	chirp []complex128 // chirp[j] = exp(-pi*i*j^2/n), j in [0,n)
	fb    []complex128 // forward FFT of the wrapped conjugate chirp, length m
	sub   *Plan        // power-of-two convolution plan
}

func newBluestein(n int) (*bluestein, error) {
	if n < 2 {
		return nil, fmt.Errorf("fft: bluestein length %d too small", n)
	}
	m := nextPow2(2*n - 1)
	b := &bluestein{n: n, m: m}
	sub, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	b.sub = sub

	// chirp[j] = exp(-pi*i * j^2 / n). j^2 is reduced mod 2n in integer
	// arithmetic before the float conversion so the sin/cos argument stays
	// small even for j near n (j^2 would otherwise lose low-order bits for
	// large transforms, destroying the cancellation the algorithm relies on).
	b.chirp = make([]complex128, n)
	twoN := uint64(2 * n)
	for j := 0; j < n; j++ {
		jj := (uint64(j) * uint64(j)) % twoN
		b.chirp[j] = expi(-math.Pi * float64(jj) / float64(n))
	}

	// bb[j] = conj(chirp[|j|]) wrapped circularly into [0, m).
	bb := make([]complex128, m)
	for j := 0; j < n; j++ {
		c := b.chirp[j]
		cc := complex(real(c), -imag(c))
		bb[j] = cc
		if j > 0 {
			bb[m-j] = cc
		}
	}
	b.fb = make([]complex128, m)
	b.sub.Forward(b.fb, bb)
	return b, nil
}

// transform computes dst = DFT_dir(src) for the rough length n.
// The inverse direction is the conjugation identity applied around the
// forward chirp machinery. The length-m convolution buffer comes from the
// sub-plan's free list of length-m vectors (m <= 4n: a fresh one per call
// would cost 512 MiB at a prime length near 2^24).
func (b *bluestein) transform(dst, src []complex128, dir Direction) {
	n, m := b.n, b.m
	a := b.sub.work.Get()
	defer b.sub.work.Put(a)
	clear(a[n:]) // the zero padding of the linear convolution
	if dir == Forward {
		for j := 0; j < n; j++ {
			a[j] = src[j] * b.chirp[j]
		}
	} else {
		for j := 0; j < n; j++ {
			v := src[j]
			a[j] = complex(real(v), -imag(v)) * b.chirp[j]
		}
	}
	b.sub.Forward(a, a)
	for j := 0; j < m; j++ {
		a[j] *= b.fb[j]
	}
	b.sub.Inverse(a, a)
	if dir == Forward {
		for k := 0; k < n; k++ {
			dst[k] = a[k] * b.chirp[k]
		}
	} else {
		inv := 1 / float64(n)
		for k := 0; k < n; k++ {
			v := a[k] * b.chirp[k]
			dst[k] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}
