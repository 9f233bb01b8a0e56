#include "textflag.h"

// ROTSTORE rotates the sum in X by the unit phase at off(BX) and stores it at
// (DI), then advances DI by the output stride R8: Go's
// complex(re*pr - im*pi, re*pi + im*pr), the imaginary part's two products
// added in the other order (IEEE addition commutes). Uses X12 and X13.
#define ROTSTORE(X, off) \
	VMOVDDUP  off(BX), X12;   \
	VMOVDDUP  off+8(BX), X13; \
	VMULPD    X12, X, X12;    \
	VPERMILPD $1, X, X;       \
	VMULPD    X13, X, X13;    \
	VADDSUBPD X13, X12, X;    \
	VMOVUPD   X, (DI);        \
	ADDQ      R8, DI

// func dotRowsFMA(out *complex128, taps *float64, lane, phase *complex128, rows, b, stride, wins, wstep, ostep int)
//
// out[c*ostep + a*stride] = phase[a] * sum_k taps[a][k]*lane[c*wstep + k] for
// each window c in [0, wins) and row a in [0, rows), where row a of taps is
// the 2*b doubles [r0, r0, r1, r1, ...] at taps + a*b*16 (window.Filter's
// LaneTapsDup). Per row and window, two YMM accumulators hold
// [re0, im0, re1, im1]: the b%4 tail taps are fused into the low half of the
// first; then each group of four taps fuses [r0,r0,r1,r1]*[w0,w1] into the
// first and [r2,r2,r3,r3]*[w2,w3] into the second, one rounding per tap
// pair, so that two independent chains hide the FMA latency. The two are
// added, then their halves, and the sum is rotated at the store (ROTSTORE,
// multiplies and adds). dotRowsFMAGo in the tests is the same order in
// math.FMA, bit for bit.
//
// A tap and a window element are both 16 bytes, so one byte offset (AX)
// indexes both. Rows go four at a time, sharing the two window loads of a
// group, then one at a time; then the next window, wstep elements on in lane
// and ostep outputs on in out. Reads rows*b*16 bytes of taps,
// ((wins-1)*wstep+b)*16 of lane and rows*16 of phase; writes 16 bytes at
// each of out + (c*ostep + a*stride)*16.
TEXT ·dotRowsFMA(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ lane+16(FP), DX
	MOVQ b+40(FP), R9
	MOVQ stride+48(FP), R8
	SHLQ $4, R8  // output stride in bytes
	MOVQ R9, R10
	ANDQ $-4, R10
	SHLQ $4, R10 // byte offset of the tail taps: (b &^ 3)*16
	SHLQ $4, R9  // byte length of a row: b*16

window:
	MOVQ DI, R14 // the window's first output
	MOVQ taps+8(FP), SI
	MOVQ phase+24(FP), BX
	MOVQ rows+32(FP), CX

rows4:
	CMPQ CX, $4
	JLT  rows1
	LEAQ (SI)(R9*1), R11
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	MOVQ R10, AX

tail4:
	CMPQ AX, R9
	JGE  body4
	VMOVUPD (DX)(AX*1), X8
	VFMADD231PD (SI)(AX*1), X8, X0
	VFMADD231PD (R11)(AX*1), X8, X1
	VFMADD231PD (R12)(AX*1), X8, X2
	VFMADD231PD (R13)(AX*1), X8, X3
	ADDQ $16, AX
	JMP  tail4

body4:
	XORQ  AX, AX
	TESTQ R10, R10
	JZ    store4

loop4:
	VMOVUPD (DX)(AX*1), Y8
	VMOVUPD 32(DX)(AX*1), Y9
	VFMADD231PD (SI)(AX*1), Y8, Y0
	VFMADD231PD 32(SI)(AX*1), Y9, Y4
	VFMADD231PD (R11)(AX*1), Y8, Y1
	VFMADD231PD 32(R11)(AX*1), Y9, Y5
	VFMADD231PD (R12)(AX*1), Y8, Y2
	VFMADD231PD 32(R12)(AX*1), Y9, Y6
	VFMADD231PD (R13)(AX*1), Y8, Y3
	VFMADD231PD 32(R13)(AX*1), Y9, Y7
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  loop4

store4:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VADDPD X4, X0, X0
	VADDPD X5, X1, X1
	VADDPD X6, X2, X2
	VADDPD X7, X3, X3
	ROTSTORE(X0, 0)
	ROTSTORE(X1, 16)
	ROTSTORE(X2, 32)
	ROTSTORE(X3, 48)
	ADDQ $64, BX
	LEAQ (SI)(R9*4), SI
	SUBQ $4, CX
	JMP  rows4

rows1:
	TESTQ CX, CX
	JLE   next
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	MOVQ R10, AX

tail1:
	CMPQ AX, R9
	JGE  body1
	VMOVUPD (DX)(AX*1), X8
	VFMADD231PD (SI)(AX*1), X8, X0
	ADDQ $16, AX
	JMP  tail1

body1:
	XORQ  AX, AX
	TESTQ R10, R10
	JZ    store1

loop1:
	VMOVUPD (DX)(AX*1), Y8
	VMOVUPD 32(DX)(AX*1), Y9
	VFMADD231PD (SI)(AX*1), Y8, Y0
	VFMADD231PD 32(SI)(AX*1), Y9, Y4
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  loop1

store1:
	VADDPD Y4, Y0, Y0
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	ROTSTORE(X0, 0)
	ADDQ $16, BX
	ADDQ R9, SI
	DECQ CX
	JMP  rows1

next:
	DECQ wins+56(FP) // windows left, counted down in the argument's slot
	JZ   done
	MOVQ wstep+64(FP), AX
	SHLQ $4, AX
	ADDQ AX, DX
	MOVQ ostep+72(FP), AX
	SHLQ $4, AX
	LEAQ (R14)(AX*1), DI
	JMP  window

done:
	VZEROUPPER
	RET

// func gatherLanesAVX2(stage *complex128, sl int, x *complex128, s, pairs int)
//
// stage[j*sl + i] = x[i*s + j] for i in [0, 2*pairs) and j in [0, s), s even:
// a 2x2 transpose of complex128 per step, inputs i and i+1 of lanes j and
// j+1 loaded as two registers, their low halves and their high halves
// joined by VPERM2F128 and stored as lane j's and lane j+1's pair. Copies
// only, so every bit is x's.
TEXT ·gatherLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ stage+0(FP), DI
	MOVQ sl+8(FP), R8
	SHLQ $4, R8            // lane stride of stage in bytes
	MOVQ x+16(FP), SI
	MOVQ s+24(FP), R9
	SHLQ $4, R9            // row stride of x in bytes
	MOVQ pairs+32(FP), BX

glrow:
	LEAQ (SI)(R9*1), R10   // input i+1
	MOVQ DI, DX
	XORQ AX, AX

gllane:
	VMOVUPD    (SI)(AX*1), Y0
	VMOVUPD    (R10)(AX*1), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2
	VPERM2F128 $0x31, Y1, Y0, Y3
	VMOVUPD    Y2, (DX)
	VMOVUPD    Y3, (DX)(R8*1)
	LEAQ       (DX)(R8*2), DX
	ADDQ       $32, AX
	CMPQ       AX, R9
	JLT        gllane

	LEAQ (SI)(R9*2), SI
	ADDQ $32, DI
	DECQ BX
	JNZ  glrow
	VZEROUPPER
	RET
