package window

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Wisdom: serialized filter designs (FFTW's term for reusable plan data).
// The design is deterministic in Params, so persisting it across runs is
// safe. What it saves is small: Design takes about 20 ms at the benchmark
// geometry (N = 7*2^16, 8 segments; 0.13 s at 64) and Load of the same
// 1.1 MB filter about 2 ms (EXPERIMENTS.md, "Plan set-up").

// wisdomMagic versions the on-disk format.
const wisdomMagic = "soifft-window-wisdom-v1"

type wisdomFile struct {
	Magic       string
	Params      Params
	Taps        [][]complex128
	Demod       []complex128
	PassbandMin float64
	PassbandMax float64
	StopbandMax float64
	ShiftErrMax float64
}

// Save writes the designed filter to w in a self-describing binary format.
func (f *Filter) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(wisdomFile{
		Magic:       wisdomMagic,
		Params:      f.Params,
		Taps:        f.Taps,
		Demod:       f.Demod,
		PassbandMin: f.PassbandMin,
		PassbandMax: f.PassbandMax,
		StopbandMax: f.StopbandMax,
		ShiftErrMax: f.ShiftErrMax,
	})
}

// Load reads a filter saved by Save, validating its structure against the
// embedded parameters and rebuilding the lane tables from the stored taps
// (a *phaseError if they are not this package's prototype).
func Load(r io.Reader) (*Filter, error) {
	var wf wisdomFile
	if err := gob.NewDecoder(r).Decode(&wf); err != nil {
		return nil, fmt.Errorf("window: reading wisdom: %w", err)
	}
	if wf.Magic != wisdomMagic {
		return nil, fmt.Errorf("window: not a wisdom file (magic %q)", wf.Magic)
	}
	if err := wf.Params.Validate(); err != nil {
		return nil, fmt.Errorf("window: wisdom has invalid parameters: %w", err)
	}
	if len(wf.Taps) != wf.Params.NMu {
		return nil, fmt.Errorf("window: wisdom has %d filters, want %d", len(wf.Taps), wf.Params.NMu)
	}
	for a, taps := range wf.Taps {
		if len(taps) != wf.Params.TapsLen() {
			return nil, fmt.Errorf("window: wisdom filter %d has %d taps, want %d", a, len(taps), wf.Params.TapsLen())
		}
	}
	if len(wf.Demod) != wf.Params.M() {
		return nil, fmt.Errorf("window: wisdom demod has %d entries, want %d", len(wf.Demod), wf.Params.M())
	}
	f := &Filter{
		Params:      wf.Params,
		Taps:        wf.Taps,
		Demod:       wf.Demod,
		PassbandMin: wf.PassbandMin,
		PassbandMax: wf.PassbandMax,
		StopbandMax: wf.StopbandMax,
		ShiftErrMax: wf.ShiftErrMax,
	}
	if err := f.factorLanes(); err != nil {
		return nil, fmt.Errorf("window: wisdom taps do not factor: %w", err)
	}
	return f, nil
}
