package window

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
)

// goldenDesign is what one Design call produced at the commit before the
// search was rewritten to sample each candidate's prototype once: the tables
// Forward reads as SHA-256 digests of their bit patterns, the chosen
// (beta, cutoff) and the diagnostics as float64 bit patterns.
type goldenDesign struct {
	p                                       Params
	beta, cutoff                            uint64
	taps, laneTaps, lanePhase, demod        string
	passMin, passMax, shiftErrMax, stopband uint64
}

// goldenGrid is mu in {8/7, 5/4, 3/2} x B in {30, 48, 72} x Segments in
// {8, 16, 32} at the smallest valid N = DMu*Segments^2, plus the benchmark
// geometry N = 7*2^16 at 8 and at 32 segments.
func goldenGrid() []Params {
	var grid []Params
	for _, mu := range [][2]int{{8, 7}, {5, 4}, {3, 2}} {
		for _, b := range []int{30, 48, 72} {
			for _, s := range []int{8, 16, 32} {
				grid = append(grid, Params{N: mu[1] * s * s, Segments: s, NMu: mu[0], DMu: mu[1], B: b})
			}
		}
	}
	return append(grid,
		Params{N: 7 << 16, Segments: 8, NMu: 8, DMu: 7, B: 72},
		Params{N: 7 << 16, Segments: 32, NMu: 8, DMu: 7, B: 72})
}

func digestComplex(rows ...[]complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestReal(row []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// kaiserStart returns the Kaiser starting point Design hands its search: the
// formula's beta and the one-sided transition width in bins.
func kaiserStart(p Params) (betaBase, trans float64) {
	mu := p.Mu()
	return kaiserBeta(2.285*2*math.Pi*(mu-1)*float64(p.B) + 8), (mu - 1) * float64(p.M())
}

// chosenDesign reruns Design's search from its Kaiser starting point.
func chosenDesign(p Params) (beta, cutoff float64) {
	betaBase, trans := kaiserStart(p)
	beta, cutoff, _ = searchDesign(p, betaBase, trans)
	return beta, cutoff
}

// measureDesign designs p and reduces the result to its golden record.
func measureDesign(t *testing.T, p Params) (*Filter, goldenDesign) {
	t.Helper()
	f, err := Design(p)
	if err != nil {
		t.Fatalf("Design(%+v): %v", p, err)
	}
	beta, cutoff := chosenDesign(p)
	return f, goldenDesign{
		p:    p,
		beta: math.Float64bits(beta), cutoff: math.Float64bits(cutoff),
		taps: digestComplex(f.Taps...), laneTaps: digestReal(f.LaneTaps),
		lanePhase: digestComplex(f.LanePhase), demod: digestComplex(f.Demod),
		passMin: math.Float64bits(f.PassbandMin), passMax: math.Float64bits(f.PassbandMax),
		shiftErrMax: math.Float64bits(f.ShiftErrMax), stopband: math.Float64bits(f.StopbandMax),
	}
}

// demodModel is the error model of one evaluation of the response G, and so
// of Demod = N/(M'*G), at the output bins of design f, relative to the
// passband: the chirp-z partial DFT of length m costs three FFTs
// (ref.FFTBound(m) each) and eight roundoffs in its chirps and products, in
// L2 over its m outputs of which the M bins are a share; the direct sum
// responseOf costs, per tap, its angle 2*pi*kappa*nu/N (up to 2*pi*B, so
// 4*pi*B roundoffs through the product and Sincos) and its L-term sum
// (DotBound(L)), times the tap mass over the passband floor.
func demodModel(f *Filter, m int) float64 {
	mass := 0.0
	for _, h := range f.Taps[0] {
		mass += cabs(h)
	}
	L, M := len(f.Taps[0]), f.M()
	chirp := (3*ref.FFTBound(m) + 8*ref.Roundoff) * math.Sqrt(float64(m)/float64(M)) * f.PassbandMax / f.PassbandMin
	direct := (4*math.Pi*float64(f.B)*ref.Roundoff + ref.DotBound(L+2)) * mass / f.PassbandMin
	return chirp + direct
}

// demodSamples is how many output bins the tolerance mode evaluates by the
// direct sum (responseOf), evenly spread over [0, M) with the band edge M-1.
const demodSamples = 257

// checkDesignModes reports whether the FFT-derived half of design f — demod
// and the passband extremes pmin and pmax, from a partial DFT of length m —
// passes each mode of want's pin. The bit mode requires want's Demod digest
// and passband bits. The tolerance mode holds demod, at demodSamples bins,
// within demodModel of scale/responseOf, an evaluation of G that shares no
// code with the chirp-z one (relative L2 over the bins), and pmin and pmax
// within twice demodModel of want's, the recorded evaluation of the same
// extremes. The tables and diagnostics no FFT computes keep their bits in
// both modes (TestDesignTablesUnchanged).
func checkDesignModes(f *Filter, demod []complex128, pmin, pmax float64, m int, want goldenDesign) (bit, tol bool, detail string) {
	bit = digestComplex(demod) == want.demod &&
		math.Float64bits(pmin) == want.passMin && math.Float64bits(pmax) == want.passMax
	M := f.M()
	scale := complex(float64(f.N)/float64(f.MPrime()), 0)
	got := make([]complex128, demodSamples)
	direct := make([]complex128, demodSamples)
	for i := range got {
		k := i * (M - 1) / (demodSamples - 1)
		got[i] = demod[k]
		direct[i] = scale / responseOf(f.Taps[0], f.N, float64(k))
	}
	model := demodModel(f, m)
	dDemod := cvec.RelErrL2(got, direct)
	dMin := math.Abs(pmin/math.Float64frombits(want.passMin) - 1)
	dMax := math.Abs(pmax/math.Float64frombits(want.passMax) - 1)
	tol = dDemod <= model && dMin <= 2*model && dMax <= 2*model
	detail = fmt.Sprintf("Demod %.3g from the direct sum (model %.3g), PassbandMin %.3g and PassbandMax %.3g from the recorded (%.3g)",
		dDemod, model, dMin, dMax, 2*model)
	return bit, tol, detail
}

// TestDesignTablesUnchanged pins every table Forward reads, the search's
// winner and all four diagnostics. The ones no FFT computes — the winner,
// Taps, LaneTaps, LanePhase, ShiftErrMax and StopbandMax — keep the bits the
// pre-rewrite designer produced. Demod and the passband extremes come from
// the chirp-z partial DFT, so they have the two modes of checkDesignModes;
// their bits were recorded again when fft's radix schedule dropped its
// aliasing rule (CHANGES.md lists the old digests). The bits were recorded
// on amd64; a target that fuses multiply-adds rounds the Bessel, sinc and
// spectrum sums differently, so elsewhere only the tolerance mode holds
// (TestResponseMatchesReference holds the evaluator to its oracle
// everywhere).
func TestDesignTablesUnchanged(t *testing.T) {
	if len(goldenDesigns) != len(goldenGrid()) {
		t.Fatalf("%d golden records for a grid of %d", len(goldenDesigns), len(goldenGrid()))
	}
	for _, want := range goldenDesigns {
		p := want.p
		t.Run(fmt.Sprintf("mu=%d_%d/B=%d/S=%d/N=%d", p.NMu, p.DMu, p.B, p.Segments, p.N), func(t *testing.T) {
			f, got := measureDesign(t, p)
			bit, tol, detail := checkDesignModes(f, f.Demod, f.PassbandMin, f.PassbandMax, chirpLen(len(f.Taps[0]), f.M()), want)
			if !tol {
				t.Errorf("tolerance mode fails: %s", detail)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			if !bit {
				t.Errorf("bit mode fails: Demod digest %s, recorded %s; PassbandMin %v, recorded %v; PassbandMax %v, recorded %v (%s)",
					got.demod, want.demod, f.PassbandMin, math.Float64frombits(want.passMin),
					f.PassbandMax, math.Float64frombits(want.passMax), detail)
			}
			if got.beta != want.beta || got.cutoff != want.cutoff {
				t.Fatalf("search chose (beta, cutoff) = (%v, %v), parent chose (%v, %v)",
					math.Float64frombits(got.beta), math.Float64frombits(got.cutoff),
					math.Float64frombits(want.beta), math.Float64frombits(want.cutoff))
			}
			for _, tbl := range []struct{ name, got, want string }{
				{"Taps", got.taps, want.taps}, {"LaneTaps", got.laneTaps, want.laneTaps},
				{"LanePhase", got.lanePhase, want.lanePhase},
			} {
				if tbl.got != tbl.want {
					t.Errorf("%s digest %s, parent %s", tbl.name, tbl.got, tbl.want)
				}
			}
			for _, d := range []struct {
				name      string
				got, want uint64
			}{
				{"ShiftErrMax", got.shiftErrMax, want.shiftErrMax}, {"StopbandMax", got.stopband, want.stopband},
			} {
				if d.got != d.want {
					t.Errorf("%s = %v, parent %v", d.name, math.Float64frombits(d.got), math.Float64frombits(d.want))
				}
			}
		})
	}
}

// TestDesignPinModes shows what each mode of the Demod pin tells apart, at
// the benchmark geometry and at the smallest grid point: the same partial DFT
// at twice the chirp length (a reordered summation of the same sums) passes
// the tolerance mode and fails the bit mode; a seeded one-tap coefficient
// error — the largest prototype tap scaled by 1+1e-9 on its way into the
// partial DFT — fails both.
func TestDesignPinModes(t *testing.T) {
	for _, want := range []goldenDesign{goldenDesigns[len(goldenDesigns)-2], goldenDesigns[0]} {
		p := want.p
		f, _ := measureDesign(t, p)
		h := f.Taps[0]
		m := chirpLen(len(h), f.M())
		seeded := append([]complex128(nil), h...)
		k := 0
		for j, v := range h {
			if cabs(v) > cabs(h[k]) {
				k = j
			}
		}
		seeded[k] *= 1 + 1e-9
		for _, tc := range []struct {
			name     string
			h        []complex128
			m        int
			bit, tol bool
		}{
			{"production", h, m, true, true},
			{"twice the chirp length", h, 2 * m, false, true},
			{"one-tap error", seeded, m, false, false},
		} {
			demod, pmin, pmax, err := demodulation(p, tc.h, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			bit, tol, detail := checkDesignModes(f, demod, pmin, pmax, tc.m, want)
			t.Logf("N=%d S=%d %s: %s", p.N, p.Segments, tc.name, detail)
			if runtime.GOARCH == "amd64" && bit != tc.bit {
				t.Errorf("N=%d S=%d %s: bit mode passes %v, want %v", p.N, p.Segments, tc.name, bit, tc.bit)
			}
			if tol != tc.tol {
				t.Errorf("N=%d S=%d %s: tolerance mode passes %v, want %v", p.N, p.Segments, tc.name, tol, tc.tol)
			}
		}
	}
}

// goldenDesigns was generated by measureDesign over goldenGrid at commit
// 5b2083e (go1.24, amd64), the parent of the search rewrite. The Demod
// digests and passband bits of the five records whose chirp-z length is
// 2^12 or more (the B = 72 points at 32 segments and both benchmark
// geometries) were recorded again when factorize dropped its aliasing rule,
// after checkDesignModes' tolerance mode had accepted them.
var goldenDesigns = []goldenDesign{
	{Params{N: 448, Segments: 8, NMu: 8, DMu: 7, B: 30}, 0x40216dda03fd18c3, 0x403ecccccccccccc,
		"18e35c825ccc062541c082ae46eb1fb448ec305072875900992ee6ab04c3672e",
		"1ba8cb061879d4e7694e427403dd399f825cd9590abe07b112c386168646c530",
		"f11b973255b4b63709fe2bbafb473f8a58d25931002ca01b50e36329c730d523",
		"39bcd8260c4988a8442d1c8331139aa8a6817dce20a17bbde9505622315b31ed",
		0x3fee6436d81f9176, 0x3ff0026f8b9c4668, 0x3f4d6701f252cbb6, 0x3f04aa1d91640ca5},
	{Params{N: 1792, Segments: 16, NMu: 8, DMu: 7, B: 30}, 0x40216dda03fd18c3, 0x404ecccccccccccc,
		"21ce153e300b4efcc3d8dbcbec04807e9def1074a3352bdd0e3ec481aa07a309",
		"d9c7b364865f98410532fc56f46eb78def20935050e5c252e1aac75fd8392f08",
		"09ab7314c52b6fc8a6e07faf223e7c5db76fd5acb52c9005f34b61246c03f270",
		"9d3c4602d52a98000d74945a3a85fc652758d467cdd9b21c8a4ff596edc833b6",
		0x3fee6436682c62cb, 0x3ff0026d1725ce58, 0x3f481aa3fd80412e, 0x3f04cc63caeef262},
	{Params{N: 7168, Segments: 32, NMu: 8, DMu: 7, B: 30}, 0x40216dda03fd18c3, 0x405ecccccccccccc,
		"43bd04a9aa956c9b82f04db673bf725494ae71cff3caee1fbbd2f3affb65764f",
		"b88024d3aa5a624aa9571ec6a01fa27770cc64400c4c3aa28f3e26cae736790d",
		"a82fabbc03e3e2f9f6243888883cb609cdd66e83bf198afbf745d421f4e21332",
		"085a15cbe77eed2a2f219656c795aff9143154fd13b984c160f13b5f939aa461",
		0x3fee64358cbb4a30, 0x3ff002734edbca14, 0x3f48193bdfa98e70, 0x3f06532330e37996},
	{Params{N: 448, Segments: 8, NMu: 8, DMu: 7, B: 48}, 0x402c01c4ec1c9b93, 0x403ecccccccccccc,
		"fdcb2d363adef2b9d8a4f21f4ed8033b51493d457498f48eaa549f0469fac90a",
		"719abce544981078d374fc8d633f7119839024f3908e02aef45df585add8f6da",
		"3e12c2df803652883186d18afb0eeb733d8dff3acb08689ef94e9a5987695376",
		"47934a8c911e70121eeaed4c2edcf55fccaacf878b812d1a5aad2fb4634bff21",
		0x3fef65d71397ded8, 0x3ff00006e2d3bc22, 0x3eef22c07feaa5bf, 0x3e89b52679afb797},
	{Params{N: 1792, Segments: 16, NMu: 8, DMu: 7, B: 48}, 0x402c01c4ec1c9b93, 0x404ecccccccccccc,
		"2726f09e74c198c7ac83435b7b1e52e0c25989fc532f29564a6584c6b4a55046",
		"e51ccfae67e2aa8871eff282f4db9a36fcf8171e68d1530fc77faa3df2faab9f",
		"040ff03eab9cb13f00d6fb2682222430f7bbbf76a5796ca9baf428cc5f9fe9a2",
		"e32b5c7a4e6445bdcd92149f4764f2e3f6475fe324cbe345795e3b793b3ab4c1",
		0x3fef65d71fe39777, 0x3ff00006dc4fed53, 0x3eec00bf22645dd2, 0x3e89b31ae5a11500},
	{Params{N: 7168, Segments: 32, NMu: 8, DMu: 7, B: 48}, 0x402c01c4ec1c9b93, 0x405ecccccccccccc,
		"b807ae1dbc8648a8328801c8e601eea595f627cf3b281a4985bb9bc4a47e2a52",
		"b58f724a68d328ef825d517e3aa38f8e5a538ede9a802c6d791f2344bb808a7f",
		"752bcb5dc8f060177de2104279920299782e88ac6a5e8d3a08f181144d99c800",
		"46e5261954b4c51f0cc651675780fe02e2c938f6a0849bb4aaf7acf1f8db4476",
		0x3fef65d723a19440, 0x3ff000076be1092f, 0x3ee818ead6583b38, 0x3e89b2991e87ef22},
	{Params{N: 448, Segments: 8, NMu: 8, DMu: 7, B: 72}, 0x40350e29bb78a501, 0x403ecccccccccccc,
		"313160e6a1781d286470facb6e6407350afb4e2ce198ef449547385343538ce0",
		"78297b2ee834a6b519ebef459d7a9753323d9353f5799e6d8549cef265ce5dbc",
		"3e12c2df803652883186d18afb0eeb733d8dff3acb08689ef94e9a5987695376",
		"6031748a483e5424c8438837c3b77022e2798b39056ca0abb3f1233823ee7f4c",
		0x3fefd400d7591e76, 0x3ff0000004d21eb8, 0x3e60cdbd9792af7b, 0x3df35b81e70fae5d},
	{Params{N: 1792, Segments: 16, NMu: 8, DMu: 7, B: 72}, 0x40350e29bb78a501, 0x404ecccccccccccc,
		"deeb880ae9745e0fa2ffb23177b4282462f23f0aa55b7f997935d15adeeb1864",
		"365028e4fbc630368dab862b4ec1cca947092f106127c2071f1df6cf92fb49de",
		"040ff03eab9cb13f00d6fb2682222430f7bbbf76a5796ca9baf428cc5f9fe9a2",
		"dfda977f00a31a25ec8d324f0cb8495e4a07fa7f045db4a2816cc87b90e61cb9",
		0x3fefd400d751cf60, 0x3ff0000005c0f6ef, 0x3e679f8dcc470d54, 0x3df356b34cc130bd},
	{Params{N: 7168, Segments: 32, NMu: 8, DMu: 7, B: 72}, 0x40350e29bb78a501, 0x405ecccccccccccc,
		"e9086ad55633646d5e83a36ceaa79eebf670419a4362c59ef2a8da8e9d55bd7a",
		"05806a11ebdee4d2eaaab119957249384dfa3f0e888ad58c7070772d975d48f5",
		"752bcb5dc8f060177de2104279920299782e88ac6a5e8d3a08f181144d99c800",
		"daa03f0ef703d6f2b49e8bdf0462ad077b652723d6b9002c6e7e831d121cf780",
		0x3fefd400d74fe570, 0x3ff0000005bfd95a, 0x3e657195877f5e32, 0x3df355817d07cfa1},
	{Params{N: 256, Segments: 8, NMu: 5, DMu: 4, B: 30}, 0x402ea6bfa6247c4b, 0x4032cccccccccccd,
		"b67cbc0fab612d64054e302cc9a2d7e15c64b358f1dcb290abd08ec4efde862f",
		"4207951c2bd5c9f7bca0ccb63eaa5d35794eceb9739a86e75c0cde1fa1aa13ce",
		"773806f80f11194835932c82fd37f7fb9819e2bcc8a6828442f5e9193d7c3d93",
		"2c7c4f5e4996aa8ce43c9e0d48cbaaff5ecf2985a1c2ba0e4d7868144d9a62bd",
		0x3fef86b44e8737e1, 0x3ff00000ccf7137a, 0x3eb788439e804040, 0x3e6a38a1d49c479a},
	{Params{N: 1024, Segments: 16, NMu: 5, DMu: 4, B: 30}, 0x402ea6bfa6247c4b, 0x4042cccccccccccd,
		"2fad967d9e34d7aed13a61777af195fcdd819eebac399426d5982a579dd4cd8d",
		"5364ca975ac7ca131f75e4b2cbf0acffa4fcc9f67ee8bc6c3dc00241f784d1be",
		"d4b94fa0b3054624e03c6e8db277c3ac9c157d835e3ecf01c99020a7256930e1",
		"79f93c776f5dbc073f800e2654425eece78b8ffe5348639ac7ea7f54ce6720db",
		0x3fef86b4477ea31b, 0x3ff00000ff2e82cf, 0x3ebeb5bb938d0037, 0x3e6a1dd6cc080a62},
	{Params{N: 4096, Segments: 32, NMu: 5, DMu: 4, B: 30}, 0x402ea6bfa6247c4b, 0x4052cccccccccccd,
		"e9fc131a685b43c72b7224c28d2d2aea79d754f1742b3ce3f292d931ed105ec0",
		"c1079c94a015f3c10a22e4cf801e75fc7cb933deaeb3db9d0df9f127cd8bd2e2",
		"a3db4f245544385b57959daa1bda819b39b0ba7897c8aee90d2a7c41e432318e",
		"4e822474490eb5d5823da76fd87a2f69e1e1986a399b603d834b3958dff5f7de",
		0x3fef86b44684d835, 0x3ff00000ff7e7a8c, 0x3ebde837449806e3, 0x3e6a0fa94c82dbd5},
	{Params{N: 256, Segments: 8, NMu: 5, DMu: 4, B: 48}, 0x403894cd5e2dd09e, 0x4032cccccccccccd,
		"4c91a66382597bf55bc72c61fbc17dd04b35c73bc80b2e5a023f77523594c440",
		"feb8f68ad056d20e3e6e8180158bad307436bfdc367d20aaa00387a888433cde",
		"28fb73388192d219380993820ea047a705238a40ad70926930aaef72f1d9cd2d",
		"1d3dcabbdc5f48c62ff0fb2c7d0647d0e420e7ea9b9f92ae05a278464bf4b1dd",
		0x3fefe8186a16cd60, 0x3ff000000034b6bd, 0x3e1be2111d432bf1, 0x3da9e42d791d6ad3},
	{Params{N: 1024, Segments: 16, NMu: 5, DMu: 4, B: 48}, 0x403894cd5e2dd09e, 0x4042cccccccccccd,
		"3c10841f7ac91e86c8a2f34bb30ba59e99d97406c6f2a1b986141adaa7fc43c4",
		"19264dc0475c3b5e58ac88ffc359b583d0e58c3844988f5abb1fecf7755c8d71",
		"ae12a9e35099c8ad918a81b8dbf00f9cd3e27745d7ad464fbddd106ac00e818f",
		"8131d433d8cc0319f4d8bfe8a2a12859bd16f084f00dc2c0ee735a96b44a1173",
		0x3fefe8186a162de1, 0x3ff000000037eafc, 0x3e1bd8c0dfbc2232, 0x3da9e7ebc55635cb},
	{Params{N: 4096, Segments: 32, NMu: 5, DMu: 4, B: 48}, 0x403894cd5e2dd09e, 0x4052cccccccccccd,
		"86f3bc936e4c5694ccd1e4b78baca6176e0be47758b812ca1a97df1975e589bf",
		"b9e621bb4ef9eacd79b869d64f652a55fb306854d2beda482ebf3ea5bb058c2e",
		"f4ce8a45b5e6548597f7c42ed1273347e7507f750a94c451865621675c8ce9f4",
		"cb503757b95640731bbdc65ef499b48acbc4d36023c1736d26aab777153faf87",
		0x3fefe8186a1609b7, 0x3ff000000037e7fe, 0x3e1bd65b60b656b3, 0x3da9e93e0556c574},
	{Params{N: 256, Segments: 8, NMu: 5, DMu: 4, B: 72}, 0x404276050bd3f49f, 0x4032cccccccccccd,
		"f8f90dae1574ca716cd25cf339001035e7b31a9c378496a176571b58519943cb",
		"1fd4adb9d9de5bb4f0f2e9f290c67b430116796e655ad589a5b758e82e86febb",
		"28fb73388192d219380993820ea047a705238a40ad70926930aaef72f1d9cd2d",
		"4f2baff736600f8372e3b9b771b23ec2a7a1dbb89ec0615469ad7a6d58ed1459",
		0x3feffd07b931732d, 0x3ff0000000000046, 0x3d22a2f404043eac, 0x3d2ec472dd1cbbfa},
	{Params{N: 1024, Segments: 16, NMu: 5, DMu: 4, B: 72}, 0x403c66ccafbc3d43, 0x4042cccccccccccd,
		"665be2388472c3a11096b7d2a1c843e3dfa3dd7f109af3276d4faee3551693d4",
		"debeb413caf41e3af674331df6ac266dea31e87b4897a27d6ca408aefe4c1a35",
		"ae12a9e35099c8ad918a81b8dbf00f9cd3e27745d7ad464fbddd106ac00e818f",
		"2089dae1258cb48c6dc04a366ba314c1c86a33256ebd8b147959bbf4c712be4c",
		0x3fefffba4f2d8191, 0x3ff0000000008212, 0x3db159da684db2ba, 0x3d34aba637958ea2},
	{Params{N: 4096, Segments: 32, NMu: 5, DMu: 4, B: 72}, 0x404054b5b1d909a0, 0x4052cccccccccccd,
		"d58931c7e1a40548af23e2b69b76b0323d063cee915b9e04f2d2094a50c56cc3",
		"25b4b7116e0199c24f2e1e02476ff9e67064ed75b1c4ea65cbc9e8cc063dfd89",
		"f4ce8a45b5e6548597f7c42ed1273347e7507f750a94c451865621675c8ce9f4",
		"054ace0bd115a2b97d0cc512b09c9ff97029e503805d4bb7704d7a954a8e2787",
		0x3feffee235870011, 0x3ff0000000000607, 0x3d6938476bd477c3, 0x3d45695b652c3709},
	{Params{N: 128, Segments: 8, NMu: 3, DMu: 2, B: 30}, 0x403ec06bbaeadcee, 0x402599999999999a,
		"71563dd8ce308813561a3f31c4af0ba09a4f679a343a7e7c9310c9c913bfca79",
		"68d6b782eb127d994c4f2efebabb7ffb34640140f07013380fbf895aa4e1971f",
		"9d16f8ebe84e0e70fa5b17fd012eb5ff00791e2c7d8f91ba2fbc2e22cbd4a11e",
		"f50922a1dbab4384f8e89cfd76b57aa81d732befb0e99963cbe7122ba24b57d2",
		0x3feff7a3aa6bffbb, 0x3ff000000000221d, 0x3d910ffbb9e71573, 0x3d2b4b6a2c395305},
	{Params{N: 512, Segments: 16, NMu: 3, DMu: 2, B: 30}, 0x403ec06bbaeadcee, 0x403599999999999a,
		"78aa3bf452e461e183c70d60abf52ea87b33fb07121f23af517e48aef3a8c303",
		"33ddf318a98b7f7f4c4cc21cf2311916e4758a5c3eac4a6119b009b6cf2732ac",
		"9e6beb24d56cce9bcdb3760e9aab15a2f863154d79c86061ec21d51773b043ad",
		"c80c35bbf2224a1425a504b3a6278e9c5caee64e6df10e11cb03c7e8f4f2c115",
		0x3feff7a3aa6c00f1, 0x3ff000000000229f, 0x3d912827ff25c73c, 0x3d2c085b42926d20},
	{Params{N: 2048, Segments: 32, NMu: 3, DMu: 2, B: 30}, 0x403ec06bbaeadcee, 0x404599999999999a,
		"69db4d29c3fc36b6a362d956de6b8644573af54ac9b78ad5565f63e89fcb1074",
		"a69955ee1df2c5c5d7feb077bfd937eda894ff5c0b8d14bf686443eff5ddec30",
		"0fd09281e094427d27ff270e9282f5464eaf222fbcf82a139cbabfdf7ef08ecb",
		"ea9e214f775601532a859b9cb760949fecdd606822f6a55d8572207c44aa724e",
		0x3feff7a3aa6c0140, 0x3ff00000000022c5, 0x3d90c3b9bb3118f2, 0x3d2bb8871d231f17},
	{Params{N: 128, Segments: 8, NMu: 3, DMu: 2, B: 48}, 0x4045ca108dbb5971, 0x402599999999999a,
		"690bee7ec0d6b8b7894306b1f30bd300d57b66dd6e08f4a81e9141205d4ea805",
		"676abf809ad8a9492b6905c408f691a45a6768b5a1702b648e86b7fe382e7a33",
		"81e6b093243ee338a5b41d61f3b06dc0aaa8e6463362aa471c61f5bb5e0e3799",
		"4db071fe43e2be7c39a70340cae14f6f695cc7cae734b7ee372697de6613063c",
		0x3fefffe4b81cf2de, 0x3feffffffffffffe, 0x3ce3b29d7d635662, 0x3d25279a1d121319},
	{Params{N: 512, Segments: 16, NMu: 3, DMu: 2, B: 48}, 0x40401aead8100a75, 0x4038000000000000,
		"c4c48080e2f62426853aaafdd1dca123935ef1baf1d1729731e0b40345551a53",
		"62252964b5fc5172be0b888ef9fa490178f665ea5522f90590f6359d0340a607",
		"0543bfaa499ff9f1f3f18c436ad70fe85c59878248e09bba55ad23eb80a5626e",
		"95d9977e8396f40c8383f6d93b80ea13c80e087875c3c71061de3fd9b6655608",
		0x3feffffffffffe67, 0x3ff00000000000d0, 0x3d39a3ffb0207255, 0x3d36ba092aca0a78},
	{Params{N: 2048, Segments: 32, NMu: 3, DMu: 2, B: 48}, 0x4042f27db2e5b1f3, 0x4048000000000000,
		"2de6859150255878c6e2b3a917370782f048cd24a55a6421bffeb0418e60d883",
		"42d8f2ae36846844b786f6bb51a0729882e5830b4478fb2fb8e05a8888a44f76",
		"90c1b4f6862591edeb67750986b836a504403de4d783e90f0ccc3be01e63edeb",
		"8e284cd1778da5d80226d04291a06555d5cb0c312f3f9fe9376774a3fe902f8f",
		0x3feffffffffffffc, 0x3ff0000000000004, 0x3ceca73166e591f9, 0x3d34864421982b78},
	{Params{N: 128, Segments: 8, NMu: 3, DMu: 2, B: 72}, 0x40527c7011058cc7, 0x402599999999999a,
		"5cef27619144254e17872bf87904674bf1b0a50c39974e232dc68d170f25b09c",
		"37ad909ecd71fdddb83e086c74b1a1fd0d802e8e7c07cfeeffb44b3fec68083e",
		"81e6b093243ee338a5b41d61f3b06dc0aaa8e6463362aa471c61f5bb5e0e3799",
		"adb3511958e3fb71eca0c878385558a03e3083bc257c4015915ec173b98bab52",
		0x3feffffe345e3206, 0x3ff0000000000009, 0x3cf9ec9b720b3e5b, 0x3d26e249cc57fac1},
	{Params{N: 512, Segments: 16, NMu: 3, DMu: 2, B: 72}, 0x404c70ac68f4d894, 0x4038000000000000,
		"794f678db3a0f463644f505eb4b8428757f088e23924574623a2290f17b36b63",
		"db70f6d38aae5c008a4b46ad0a590cca0027f3d65eb043adca8e02bbfcb70473",
		"0543bfaa499ff9f1f3f18c436ad70fe85c59878248e09bba55ad23eb80a5626e",
		"f234ded203725da5985a63b367208968643fce611e3f096af37033f513e76202",
		0x3feffffffffffff7, 0x3feffffffffffffe, 0x3cf891cbdbad3e70, 0x3d36c5f24a24aec7},
	{Params{N: 2048, Segments: 32, NMu: 3, DMu: 2, B: 72}, 0x40505a6322bffc88, 0x404599999999999a,
		"91de756c3c70620e2d6a396bc91a3614a05988535f1582ad6699ce4e5dacae17",
		"86df61175834cfa105e52f4468677fc79b5a7661d1cbedd7cbeb3810112b4d64",
		"90c1b4f6862591edeb67750986b836a504403de4d783e90f0ccc3be01e63edeb",
		"34f722de1c76ddfb4b776df7c59ee3044983ee0eccb25c3693e2809e09c915fe",
		0x3fefffffbb9a730f, 0x3feffffffffffffd, 0x3ce2092ccf0189ba, 0x3d45adef527bc222},
	{Params{N: 458752, Segments: 8, NMu: 8, DMu: 7, B: 72}, 0x40350e29bb78a501, 0x40decccccccccccc,
		"313160e6a1781d286470facb6e6407350afb4e2ce198ef449547385343538ce0",
		"78297b2ee834a6b519ebef459d7a9753323d9353f5799e6d8549cef265ce5dbc",
		"3e12c2df803652883186d18afb0eeb733d8dff3acb08689ef94e9a5987695376",
		"478b946c028d568c5e67a331315d7b16f8b6f717747f3ea15ddf161dd9a36940",
		0x3fefd400d7591e74, 0x3ff0000005ce1cea, 0x3e622af4d9918839, 0x3df35b81e70fae5d},
	{Params{N: 458752, Segments: 32, NMu: 8, DMu: 7, B: 72}, 0x40350e29bb78a501, 0x40becccccccccccc,
		"e9086ad55633646d5e83a36ceaa79eebf670419a4362c59ef2a8da8e9d55bd7a",
		"05806a11ebdee4d2eaaab119957249384dfa3f0e888ad58c7070772d975d48f5",
		"752bcb5dc8f060177de2104279920299782e88ac6a5e8d3a08f181144d99c800",
		"dc19c7d14e85ef815fe6a927b46f0df589b0f5d8e093c58954ce5d5d778f6faa",
		0x3fefd400d74fe56f, 0x3ff0000005c8ac32, 0x3e621aaa08e25e9c, 0x3df355817d07cfa1},
}
