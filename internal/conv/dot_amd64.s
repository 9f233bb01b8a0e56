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

// FMA16 fuses the four windows in Z16-Z19 against the four rows of taps in
// Z20-Z23: window w under row r into accumulator Z(4w + r).
#define FMA16 \
	VFMADD231PD Z20, Z16, Z0;  \
	VFMADD231PD Z21, Z16, Z1;  \
	VFMADD231PD Z22, Z16, Z2;  \
	VFMADD231PD Z23, Z16, Z3;  \
	VFMADD231PD Z20, Z17, Z4;  \
	VFMADD231PD Z21, Z17, Z5;  \
	VFMADD231PD Z22, Z17, Z6;  \
	VFMADD231PD Z23, Z17, Z7;  \
	VFMADD231PD Z20, Z18, Z8;  \
	VFMADD231PD Z21, Z18, Z9;  \
	VFMADD231PD Z22, Z18, Z10; \
	VFMADD231PD Z23, Z18, Z11; \
	VFMADD231PD Z20, Z19, Z12; \
	VFMADD231PD Z21, Z19, Z13; \
	VFMADD231PD Z22, Z19, Z14; \
	VFMADD231PD Z23, Z19, Z15

// SUMROT sums the accumulators A, B, C, D of one window's four rows into A,
// row a's output in A's 128-bit lane a, and rotates them: each accumulator
// holds four complex partial sums L0-L3, which VSHUFF64X2 pairs so that
// the first add gives L0 + L2 and L1 + L3 and the second their sum,
// (L0 + L2) + (L1 + L3) as dotRowsFMA adds them. The rotation is ROTSTORE's
// with the phases' [pr, pr] in Z24 and [-pi, pi] in Z25, so that one add of
// [re*pr, im*pr] and [-(im*pi), re*pi] is VADDSUBPD's x - y, x + y (no EVEX
// form exists) to the bit. Uses Z26 and Z27.
#define SUMROT(A, B, C, D) \
	VSHUFF64X2 $0x44, B, A, Z26; \
	VSHUFF64X2 $0xEE, B, A, Z27; \
	VADDPD     Z27, Z26, A;      \
	VSHUFF64X2 $0x44, D, C, Z26; \
	VSHUFF64X2 $0xEE, D, C, Z27; \
	VADDPD     Z27, Z26, C;      \
	VSHUFF64X2 $0x88, C, A, Z26; \
	VSHUFF64X2 $0xDD, C, A, Z27; \
	VADDPD     Z27, Z26, A;      \
	VMULPD     A, Z24, Z26;      \
	VPERMILPD  $0x55, A, A;      \
	VMULPD     A, Z25, A;        \
	VADDPD     A, Z26, A

// SCATTER stores the four outputs in Z's 128-bit lanes at (AX), R8 bytes
// apart.
#define SCATTER(Z) \
	VEXTRACTF32X4 $0, Z, (AX);       \
	VEXTRACTF32X4 $1, Z, (AX)(R8*1); \
	VEXTRACTF32X4 $2, Z, (AX)(R8*2); \
	ADDQ          R8, AX;            \
	VEXTRACTF32X4 $3, Z, (AX)(R8*2); \
	SUBQ          R8, AX

// The sign bit of the real part of each of four complex128: XORed into
// [pi, pi] it gives [-pi, pi].
DATA signRe<>+0x00(SB)/8, $0x8000000000000000
DATA signRe<>+0x08(SB)/8, $0
DATA signRe<>+0x10(SB)/8, $0x8000000000000000
DATA signRe<>+0x18(SB)/8, $0
DATA signRe<>+0x20(SB)/8, $0x8000000000000000
DATA signRe<>+0x28(SB)/8, $0
DATA signRe<>+0x30(SB)/8, $0x8000000000000000
DATA signRe<>+0x38(SB)/8, $0
GLOBL signRe<>(SB), RODATA|NOPTR, $64

// func dotRowsAVX512(out *complex128, taps *float64, lane, phase *complex128, rows, b, stride, wins, wstep, ostep int)
//
// dotRowsFMA for rows and wins both multiples of four, in AVX-512F, to the
// bit: one ZMM accumulator per output holds dotRowsFMA's two YMM
// accumulators of it side by side, [L0, L1, L2, L3] with Lk the complex
// partial sum of the taps ≡ k (mod 4), so that one fused multiply-add of
// [r0,r0,r1,r1,r2,r2,r3,r3] by the window's four elements is dotRowsFMA's
// two, lane for lane. The b%4 tail taps go first, into L0 alone (the loads
// are masked to its two doubles by K1; the other lanes add 0*0 to +0). Then
// SUMROT adds (L0 + L2) + (L1 + L3) and rotates. Four rows by four windows
// make a block of sixteen independent accumulators, Z0-Z15, which hide the
// FMA latency; each group of four taps loads the four windows and the four
// rows once for the block's sixteen FMAs. Blocks go four windows at a
// time along the lane, then the next four rows. Reads and writes exactly
// what dotRowsFMA does with the same arguments; the argument slots of
// stride, wstep and ostep are turned into bytes, those of out, taps, phase
// and rows into the current row block's.
TEXT ·dotRowsAVX512(SB), NOSPLIT, $0-80
	MOVL  $3, AX
	KMOVW AX, K1        // the two doubles of one complex
	SHLQ  $4, stride+48(FP)
	SHLQ  $4, wstep+64(FP)
	SHLQ  $4, ostep+72(FP)
	MOVQ  stride+48(FP), R8
	MOVQ  b+40(FP), R9
	MOVQ  R9, R10
	ANDQ  $-4, R10
	SHLQ  $4, R10       // byte offset of the tail taps: (b &^ 3)*16
	SHLQ  $4, R9        // byte length of a row: b*16

rows4:
	MOVQ      phase+24(FP), AX
	VMOVDDUP  (AX), Z24
	VPERMILPD $0xFF, (AX), Z25
	VPXORQ    signRe<>(SB), Z25, Z25
	MOVQ      taps+8(FP), SI
	LEAQ      (SI)(R9*1), R14
	LEAQ      (SI)(R9*2), R15
	LEAQ      (R14)(R9*2), BX
	MOVQ      lane+16(FP), DX
	MOVQ      wstep+64(FP), AX
	LEAQ      (DX)(AX*1), R11
	LEAQ      (DX)(AX*2), R12
	LEAQ      (R11)(AX*2), R13
	MOVQ      out+0(FP), DI
	MOVQ      wins+56(FP), CX

wins4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   R10, AX

tail:
	CMPQ      AX, R9
	JGE       body
	VMOVUPD.Z (DX)(AX*1), K1, Z16
	VMOVUPD.Z (R11)(AX*1), K1, Z17
	VMOVUPD.Z (R12)(AX*1), K1, Z18
	VMOVUPD.Z (R13)(AX*1), K1, Z19
	VMOVUPD.Z (SI)(AX*1), K1, Z20
	VMOVUPD.Z (R14)(AX*1), K1, Z21
	VMOVUPD.Z (R15)(AX*1), K1, Z22
	VMOVUPD.Z (BX)(AX*1), K1, Z23
	FMA16
	ADDQ      $16, AX
	JMP       tail

body:
	XORQ  AX, AX
	TESTQ R10, R10
	JZ    sum

loop:
	VMOVUPD (DX)(AX*1), Z16
	VMOVUPD (R11)(AX*1), Z17
	VMOVUPD (R12)(AX*1), Z18
	VMOVUPD (R13)(AX*1), Z19
	VMOVUPD (SI)(AX*1), Z20
	VMOVUPD (R14)(AX*1), Z21
	VMOVUPD (R15)(AX*1), Z22
	VMOVUPD (BX)(AX*1), Z23
	FMA16
	ADDQ    $64, AX
	CMPQ    AX, R10
	JLT     loop

sum:
	SUMROT(Z0, Z1, Z2, Z3)
	SUMROT(Z4, Z5, Z6, Z7)
	SUMROT(Z8, Z9, Z10, Z11)
	SUMROT(Z12, Z13, Z14, Z15)
	MOVQ DI, AX
	CMPQ R8, $16
	JNE  scatter
	VMOVUPD Z0, (AX)     // stride 1: a window's four outputs are adjacent
	ADDQ    ostep+72(FP), AX
	VMOVUPD Z4, (AX)
	ADDQ    ostep+72(FP), AX
	VMOVUPD Z8, (AX)
	ADDQ    ostep+72(FP), AX
	VMOVUPD Z12, (AX)
	ADDQ    ostep+72(FP), AX
	JMP     stored

scatter:
	SCATTER(Z0)
	ADDQ ostep+72(FP), AX
	SCATTER(Z4)
	ADDQ ostep+72(FP), AX
	SCATTER(Z8)
	ADDQ ostep+72(FP), AX
	SCATTER(Z12)
	ADDQ ostep+72(FP), AX

stored:
	MOVQ AX, DI // the next block's first window
	MOVQ wstep+64(FP), AX
	SHLQ $2, AX
	ADDQ AX, DX
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	SUBQ $4, CX
	JNZ  wins4

	MOVQ R8, AX
	SHLQ $2, AX
	ADDQ AX, out+0(FP)
	LEAQ (SI)(R9*4), SI
	MOVQ SI, taps+8(FP)
	ADDQ $64, phase+24(FP)
	SUBQ $4, rows+32(FP)
	JNZ  rows4
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
