#include "textflag.h"

// AVX2 twins of the Stockham stages, the 8-point codelet, the six-step's
// two per-element products and the plain plan's last radix-2 pass fused with
// its demodulation (stockham.go, codelets.go, sixstep.go, plan.go). Each does
// the Go twin's operations on the same operands in the same order, two
// complex128 per YMM register, so the two agree bit for bit (NaN payloads
// aside): multiplies and adds only, each rounded, no FMA. One AVX-512F
// twin, radix8AVX512, does radix8AVX2's operations four complex128 per ZMM
// register and so gives its bits too.
//
// A complex product z*w is Go's (zr*wr - zi*wi, zr*wi + zi*wr):
//
//	t1 = z * [wr, wr]             [zr*wr, zi*wr]
//	t2 = swap(z) * [wi, wi]       [zi*wi, zr*wi]
//	VADDSUBPD t2, t1              [zr*wr - zi*wi, zi*wr + zr*wi]
//
// mulByI(d) = (-d.im, d.re) is a swap and a sign flip of the real lane, as in
// Go; the W8 rotations of the radix-8 butterfly and the output pairs of the
// odd radices are written with the sums Go writes (x - (-y) and x + (-y) are
// IEEE's x + y and x - y exactly).

DATA negall<>+0(SB)/8, $0x8000000000000000
DATA negall<>+8(SB)/8, $0x8000000000000000
DATA negall<>+16(SB)/8, $0x8000000000000000
DATA negall<>+24(SB)/8, $0x8000000000000000
GLOBL negall<>(SB), RODATA|NOPTR, $32

// neglo flips the real lane of each complex128, neghi the imaginary lane.
DATA neglo<>+0(SB)/8, $0x8000000000000000
DATA neglo<>+8(SB)/8, $0
DATA neglo<>+16(SB)/8, $0x8000000000000000
DATA neglo<>+24(SB)/8, $0
GLOBL neglo<>(SB), RODATA|NOPTR, $32

DATA neghi<>+0(SB)/8, $0
DATA neghi<>+8(SB)/8, $0x8000000000000000
DATA neghi<>+16(SB)/8, $0
DATA neghi<>+24(SB)/8, $0x8000000000000000
GLOBL neghi<>(SB), RODATA|NOPTR, $32

// rsqrt2 is invSqrt2 = sqrt(2)/2 in every lane; rsqrt2nh is (c, -c).
DATA rsqrt2<>+0(SB)/8, $0x3FE6A09E667F3BCD
DATA rsqrt2<>+8(SB)/8, $0x3FE6A09E667F3BCD
DATA rsqrt2<>+16(SB)/8, $0x3FE6A09E667F3BCD
DATA rsqrt2<>+24(SB)/8, $0x3FE6A09E667F3BCD
GLOBL rsqrt2<>(SB), RODATA|NOPTR, $32

DATA rsqrt2nh<>+0(SB)/8, $0x3FE6A09E667F3BCD
DATA rsqrt2nh<>+8(SB)/8, $0xBFE6A09E667F3BCD
DATA rsqrt2nh<>+16(SB)/8, $0x3FE6A09E667F3BCD
DATA rsqrt2nh<>+24(SB)/8, $0xBFE6A09E667F3BCD
GLOBL rsqrt2nh<>(SB), RODATA|NOPTR, $32

// BFLY8 is the radix-8 butterfly of stageRadix8 and dft8 on u0..u7 in
// Y0..Y7, without the stage twiddles. It leaves output t in
//
//	t:  0   1   2    3   4   5   6    7
//	    Y8  Y0  Y10  Y2  Y9  Y1  Y11  Y3
//
// and uses Y4..Y7 as scratch.
#define BFLY8 \
	VADDPD    Y4, Y0, Y8; \
	VSUBPD    Y4, Y0, Y0; \
	VADDPD    Y5, Y1, Y9; \
	VSUBPD    Y5, Y1, Y1; \
	VADDPD    Y6, Y2, Y10; \
	VSUBPD    Y6, Y2, Y2; \
	VADDPD    Y7, Y3, Y11; \
	VSUBPD    Y7, Y3, Y3; \
	VPERMILPD $5, Y1, Y4; \
	VXORPD    negall<>(SB), Y4, Y4; \
	VADDSUBPD Y4, Y1, Y1; \
	VMULPD    rsqrt2<>(SB), Y1, Y1; \
	VPERMILPD $5, Y2, Y2; \
	VXORPD    neghi<>(SB), Y2, Y2; \
	VPERMILPD $5, Y3, Y4; \
	VADDSUBPD Y3, Y4, Y3; \
	VMULPD    rsqrt2nh<>(SB), Y3, Y3; \
	VADDPD    Y10, Y8, Y4; \
	VSUBPD    Y10, Y8, Y5; \
	VADDPD    Y11, Y9, Y6; \
	VSUBPD    Y11, Y9, Y7; \
	VPERMILPD $5, Y7, Y7; \
	VXORPD    neglo<>(SB), Y7, Y7; \
	VADDPD    Y6, Y4, Y8; \
	VSUBPD    Y6, Y4, Y9; \
	VSUBPD    Y7, Y5, Y10; \
	VADDPD    Y7, Y5, Y11; \
	VADDPD    Y2, Y0, Y4; \
	VSUBPD    Y2, Y0, Y5; \
	VADDPD    Y3, Y1, Y6; \
	VSUBPD    Y3, Y1, Y7; \
	VPERMILPD $5, Y7, Y7; \
	VXORPD    neglo<>(SB), Y7, Y7; \
	VADDPD    Y6, Y4, Y0; \
	VSUBPD    Y6, Y4, Y1; \
	VSUBPD    Y7, Y5, Y2; \
	VADDPD    Y7, Y5, Y3

// CMULB sets Z = Z * tw[off/16], the twiddle read from the table at DX and
// broadcast to both complex lanes.
#define CMULB(off, Z) \
	VBROADCASTSD off(DX), Y12; \
	VBROADCASTSD off+8(DX), Y13; \
	VMULPD       Y12, Z, Y12; \
	VPERMILPD    $5, Z, Z; \
	VMULPD       Y13, Z, Y13; \
	VADDSUBPD    Y13, Y12, Z

// CMULR sets Z = Z * W for W a pair of complex128 in a register; uses Y14
// and Y15.
#define CMULR(W, Z) \
	VMOVDDUP  W, Y14; \
	VPERMILPD $15, W, Y15; \
	VMULPD    Y14, Z, Y14; \
	VPERMILPD $5, Z, Z; \
	VMULPD    Y15, Z, Y15; \
	VADDSUBPD Y15, Y14, Z

// CMULP sets Z = Z * w for the pair of butterflies p and p+1 of a
// unit-stride radix-8 pass: twiddle t of butterfly p at off(DX) in the low
// lane, of butterfly p+1 at off+112(DX) in the high lane, both read from the
// stage's own table. Uses Y4, which BFLY8 leaves free, and CMULR's Y14 and
// Y15.
#define CMULP(off, Z) \
	VMOVUPD     off(DX), X4; \
	VINSERTF128 $1, off+112(DX), Y4, Y4; \
	CMULR(Y4, Z)

// func radix8AVX2(y, x, tw *complex128, m, s, xs int)
//
// stageRadix8 at an even stride s: y[q + s*(8p + t)] from
// x[q + xs*(p + m*u)], q two at a time. Reads leg u of butterfly p at
// x + 16*xs*(p + m*u); writes leg t at y + 16*s*(8p + t).
TEXT ·radix8AVX2(SB), NOSPLIT, $0-48
	MOVQ  y+0(FP), AX
	MOVQ  x+8(FP), R14
	MOVQ  tw+16(FP), DX
	MOVQ  m+24(FP), BX
	MOVQ  s+32(FP), R13
	SHLQ  $4, R13          // output leg stride in bytes
	MOVQ  xs+40(FP), R8
	SHLQ  $4, R8
	MOVQ  R8, xs+40(FP)    // input row stride in bytes
	IMULQ BX, R8           // input leg stride in bytes

r8p:
	MOVQ R14, SI
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9            // leg 3
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10           // leg 6
	MOVQ AX, DI
	LEAQ (DI)(R13*2), R11
	ADDQ R13, R11          // leg 3
	LEAQ (R11)(R13*2), R12
	ADDQ R13, R12          // leg 6
	MOVQ s+32(FP), CX
	SHRQ $1, CX

r8q:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (R9), Y3
	VMOVUPD (R9)(R8*1), Y4
	VMOVUPD (R9)(R8*2), Y5
	VMOVUPD (R10), Y6
	VMOVUPD (R10)(R8*1), Y7
	BFLY8
	VMOVUPD Y8, (DI)
	CMULB(0, Y0)
	VMOVUPD Y0, (DI)(R13*1)
	CMULB(16, Y10)
	VMOVUPD Y10, (DI)(R13*2)
	CMULB(32, Y2)
	VMOVUPD Y2, (R11)
	CMULB(48, Y9)
	VMOVUPD Y9, (R11)(R13*1)
	CMULB(64, Y1)
	VMOVUPD Y1, (R11)(R13*2)
	CMULB(80, Y11)
	VMOVUPD Y11, (R12)
	CMULB(96, Y3)
	VMOVUPD Y3, (R12)(R13*1)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	ADDQ    $32, R11
	ADDQ    $32, R12
	DECQ    CX
	JNZ     r8q

	ADDQ $112, DX
	ADDQ xs+40(FP), R14
	LEAQ (AX)(R13*8), AX
	DECQ BX
	JNZ  r8p
	VZEROUPPER
	RET

// func radix8UnitAVX2(y, x, tw *complex128, m int)
//
// stageRadix8Unit (s = 1) for even m, butterflies p and p+1 together: the
// eight legs of the pair are contiguous in x, its outputs are y[8p:8p+8] and
// y[8p+8:8p+16], and its twiddles are tw[7p:7p+14], each pair of one t
// joined in a register by CMULP.
TEXT ·radix8UnitAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ tw+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ R8, CX
	SHRQ $1, CX
	SHLQ $4, R8            // input leg stride in bytes

r8u:
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (R9), Y3
	VMOVUPD (R9)(R8*1), Y4
	VMOVUPD (R9)(R8*2), Y5
	VMOVUPD (R10), Y6
	VMOVUPD (R10)(R8*1), Y7
	BFLY8
	VMOVUPD      X8, (DI)
	VEXTRACTF128 $1, Y8, 128(DI)
	CMULP(0, Y0)
	VMOVUPD      X0, 16(DI)
	VEXTRACTF128 $1, Y0, 144(DI)
	CMULP(16, Y10)
	VMOVUPD      X10, 32(DI)
	VEXTRACTF128 $1, Y10, 160(DI)
	CMULP(32, Y2)
	VMOVUPD      X2, 48(DI)
	VEXTRACTF128 $1, Y2, 176(DI)
	CMULP(48, Y9)
	VMOVUPD      X9, 64(DI)
	VEXTRACTF128 $1, Y9, 192(DI)
	CMULP(64, Y1)
	VMOVUPD      X1, 80(DI)
	VEXTRACTF128 $1, Y1, 208(DI)
	CMULP(80, Y11)
	VMOVUPD      X11, 96(DI)
	VEXTRACTF128 $1, Y11, 224(DI)
	CMULP(96, Y3)
	VMOVUPD      X3, 112(DI)
	VEXTRACTF128 $1, Y3, 240(DI)
	ADDQ         $32, SI
	ADDQ         $256, DI
	ADDQ         $224, DX
	DECQ         CX
	JNZ          r8u
	VZEROUPPER
	RET

// BFLY8Z is BFLY8 on four complex128 per ZMM register, u0..u7 in Z0..Z7,
// leaving output t where BFLY8 leaves it (Y8 -> Z8, ...). VADDSUBPD has no
// 512-bit form: each of BFLY8's two becomes a sign flip of one operand's
// real lanes and a VADDPD, x - y being x + (-y) exactly, so the bits are
// BFLY8's. Constants: neghi in Z28, neglo in Z29, rsqrt2 in Z30, rsqrt2nh
// in Z31. Uses Z4..Z7 as scratch.
#define BFLY8Z \
	VADDPD    Z4, Z0, Z8; \
	VSUBPD    Z4, Z0, Z0; \
	VADDPD    Z5, Z1, Z9; \
	VSUBPD    Z5, Z1, Z1; \
	VADDPD    Z6, Z2, Z10; \
	VSUBPD    Z6, Z2, Z2; \
	VADDPD    Z7, Z3, Z11; \
	VSUBPD    Z7, Z3, Z3; \
	VPERMILPD $0x55, Z1, Z4; \
	VPXORQ    Z28, Z4, Z4; \
	VADDPD    Z4, Z1, Z1; \
	VMULPD    Z30, Z1, Z1; \
	VPERMILPD $0x55, Z2, Z2; \
	VPXORQ    Z28, Z2, Z2; \
	VPERMILPD $0x55, Z3, Z4; \
	VPXORQ    Z29, Z3, Z3; \
	VADDPD    Z3, Z4, Z3; \
	VMULPD    Z31, Z3, Z3; \
	VADDPD    Z10, Z8, Z4; \
	VSUBPD    Z10, Z8, Z5; \
	VADDPD    Z11, Z9, Z6; \
	VSUBPD    Z11, Z9, Z7; \
	VPERMILPD $0x55, Z7, Z7; \
	VPXORQ    Z29, Z7, Z7; \
	VADDPD    Z6, Z4, Z8; \
	VSUBPD    Z6, Z4, Z9; \
	VSUBPD    Z7, Z5, Z10; \
	VADDPD    Z7, Z5, Z11; \
	VADDPD    Z2, Z0, Z4; \
	VSUBPD    Z2, Z0, Z5; \
	VADDPD    Z3, Z1, Z6; \
	VSUBPD    Z3, Z1, Z7; \
	VPERMILPD $0x55, Z7, Z7; \
	VPXORQ    Z29, Z7, Z7; \
	VADDPD    Z6, Z4, Z0; \
	VSUBPD    Z6, Z4, Z1; \
	VSUBPD    Z7, Z5, Z2; \
	VADDPD    Z7, Z5, Z3

// TWZ broadcasts the twiddle at off(DX) into WR = [wr, wr, ...] and
// WI = [-wi, wi, ...] (neglo in Z29).
#define TWZ(off, WR, WI) \
	VBROADCASTSD off(DX), WR; \
	VBROADCASTSD off+8(DX), WI; \
	VPXORQ       Z29, WI, WI

// CMULZ sets Z = Z * w for w held by TWZ in WR and WI: Z*[wr, wr] plus
// swap(Z)*[-wi, wi], which is CMULB's VADDSUBPD to the bit, zi*(-wi) being
// -(zi*wi) exactly. Uses Z12 and Z13.
#define CMULZ(WR, WI, Z) \
	VMULPD    WR, Z, Z12; \
	VPERMILPD $0x55, Z, Z; \
	VMULPD    WI, Z, Z13; \
	VADDPD    Z13, Z12, Z

// func radix8AVX512(y, x, tw *complex128, m, s, xs int)
//
// radix8AVX2 at a stride s that is a multiple of four, q four at a time, on
// AVX-512F: the same operations on the same operands, so the same bits. The
// seven twiddles of butterfly p are broadcast into Z14..Z27 once, before its
// s/4 steps.
TEXT ·radix8AVX512(SB), NOSPLIT, $0-48
	MOVQ             y+0(FP), AX
	MOVQ             x+8(FP), R14
	MOVQ             tw+16(FP), DX
	MOVQ             m+24(FP), BX
	MOVQ             s+32(FP), R13
	SHLQ             $4, R13          // output leg stride in bytes
	MOVQ             xs+40(FP), R8
	SHLQ             $4, R8
	MOVQ             R8, xs+40(FP)    // input row stride in bytes
	IMULQ            BX, R8           // input leg stride in bytes
	VBROADCASTF64X4  neghi<>(SB), Z28
	VBROADCASTF64X4  neglo<>(SB), Z29
	VBROADCASTF64X4  rsqrt2<>(SB), Z30
	VBROADCASTF64X4  rsqrt2nh<>(SB), Z31

z8p:
	TWZ(0, Z14, Z15)
	TWZ(16, Z16, Z17)
	TWZ(32, Z18, Z19)
	TWZ(48, Z20, Z21)
	TWZ(64, Z22, Z23)
	TWZ(80, Z24, Z25)
	TWZ(96, Z26, Z27)
	MOVQ R14, SI
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9            // leg 3
	LEAQ (R9)(R8*2), R10
	ADDQ R8, R10           // leg 6
	MOVQ AX, DI
	LEAQ (DI)(R13*2), R11
	ADDQ R13, R11          // leg 3
	LEAQ (R11)(R13*2), R12
	ADDQ R13, R12          // leg 6
	MOVQ s+32(FP), CX
	SHRQ $2, CX

z8q:
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R8*1), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD (R9), Z3
	VMOVUPD (R9)(R8*1), Z4
	VMOVUPD (R9)(R8*2), Z5
	VMOVUPD (R10), Z6
	VMOVUPD (R10)(R8*1), Z7
	BFLY8Z
	VMOVUPD Z8, (DI)
	CMULZ(Z14, Z15, Z0)
	VMOVUPD Z0, (DI)(R13*1)
	CMULZ(Z16, Z17, Z10)
	VMOVUPD Z10, (DI)(R13*2)
	CMULZ(Z18, Z19, Z2)
	VMOVUPD Z2, (R11)
	CMULZ(Z20, Z21, Z9)
	VMOVUPD Z9, (R11)(R13*1)
	CMULZ(Z22, Z23, Z1)
	VMOVUPD Z1, (R11)(R13*2)
	CMULZ(Z24, Z25, Z11)
	VMOVUPD Z11, (R12)
	CMULZ(Z26, Z27, Z3)
	VMOVUPD Z3, (R12)(R13*1)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, DI
	ADDQ    $64, R11
	ADDQ    $64, R12
	DECQ    CX
	JNZ     z8q

	ADDQ $112, DX
	ADDQ xs+40(FP), R14
	LEAQ (AX)(R13*8), AX
	DECQ BX
	JNZ  z8p
	VZEROUPPER
	RET

// func radix4AVX2(y, x, tw *complex128, m, s, xs int)
//
// stageRadix4 at an even stride s, addressed as radix8AVX2.
TEXT ·radix4AVX2(SB), NOSPLIT, $0-48
	MOVQ  y+0(FP), AX
	MOVQ  x+8(FP), R14
	MOVQ  tw+16(FP), DX
	MOVQ  m+24(FP), BX
	MOVQ  s+32(FP), R13
	SHLQ  $4, R13
	MOVQ  xs+40(FP), R8
	SHLQ  $4, R8
	MOVQ  R8, xs+40(FP)
	IMULQ BX, R8

r4p:
	MOVQ R14, SI
	LEAQ (SI)(R8*2), R9
	ADDQ R8, R9
	MOVQ AX, DI
	LEAQ (DI)(R13*2), R11
	ADDQ R13, R11
	MOVQ s+32(FP), CX
	SHRQ $1, CX

r4q:
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R8*1), Y1
	VMOVUPD   (SI)(R8*2), Y2
	VMOVUPD   (R9), Y3
	VADDPD    Y2, Y0, Y4          // a = u0 + u2
	VSUBPD    Y2, Y0, Y5          // c = u0 - u2
	VADDPD    Y3, Y1, Y6          // b = u1 + u3
	VSUBPD    Y3, Y1, Y7          // d = u1 - u3
	VPERMILPD $5, Y7, Y7
	VXORPD    neglo<>(SB), Y7, Y7 // id
	VADDPD    Y6, Y4, Y0          // a + b
	VSUBPD    Y6, Y4, Y1          // a - b
	VSUBPD    Y7, Y5, Y2          // c - id
	VADDPD    Y7, Y5, Y3          // c + id
	VMOVUPD   Y0, (DI)
	CMULB(0, Y2)
	VMOVUPD   Y2, (DI)(R13*1)
	CMULB(16, Y1)
	VMOVUPD   Y1, (DI)(R13*2)
	CMULB(32, Y3)
	VMOVUPD   Y3, (R11)
	ADDQ      $32, SI
	ADDQ      $32, R9
	ADDQ      $32, DI
	ADDQ      $32, R11
	DECQ      CX
	JNZ       r4q

	ADDQ $48, DX
	ADDQ xs+40(FP), R14
	LEAQ (AX)(R13*4), AX
	DECQ BX
	JNZ  r4p
	VZEROUPPER
	RET

// func radix2AVX2(y, x, tw *complex128, m, s, xs int)
//
// stageRadix2 at an even stride s, addressed as radix8AVX2.
TEXT ·radix2AVX2(SB), NOSPLIT, $0-48
	MOVQ  y+0(FP), AX
	MOVQ  x+8(FP), R14
	MOVQ  tw+16(FP), DX
	MOVQ  m+24(FP), BX
	MOVQ  s+32(FP), R13
	SHLQ  $4, R13
	MOVQ  xs+40(FP), R8
	SHLQ  $4, R8
	MOVQ  R8, xs+40(FP)
	IMULQ BX, R8

r2p:
	MOVQ R14, SI
	MOVQ AX, DI
	MOVQ s+32(FP), CX
	SHRQ $1, CX

r2q:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VADDPD  Y1, Y0, Y2 // a + b
	VSUBPD  Y1, Y0, Y3 // a - b
	VMOVUPD Y2, (DI)
	CMULB(0, Y3)
	VMOVUPD Y3, (DI)(R13*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     r2q

	ADDQ $16, DX
	ADDQ xs+40(FP), R14
	LEAQ (AX)(R13*2), AX
	DECQ BX
	JNZ  r2p
	VZEROUPPER
	RET

// func dft8ColsAVX2(y *[8]*complex128, x *complex128, xs, pairs int)
//
// dft8 on the 2*pairs columns of the 8-row matrix at x (row stride xs), two
// adjacent columns together: element k of columns r and r+1 is one register,
// loaded from x + 16*(k*xs + r); bin f of both is stored at y[f] + 16*r.
// The eight bins' runs are independent pointers that share the offset AX.
TEXT ·dft8ColsAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), AX
	MOVQ 0(AX), DI         // bin 0
	MOVQ 8(AX), R8
	MOVQ 16(AX), R12
	MOVQ 24(AX), R13
	MOVQ 32(AX), R14
	MOVQ 40(AX), R15
	MOVQ 48(AX), BX
	MOVQ 56(AX), DX        // bin 7
	MOVQ x+8(FP), SI
	MOVQ xs+16(FP), R9
	SHLQ $4, R9            // input row stride in bytes
	MOVQ pairs+24(FP), CX
	LEAQ (SI)(R9*2), R10
	ADDQ R9, R10           // input row 3
	LEAQ (R10)(R9*2), R11
	ADDQ R9, R11           // input row 6
	XORQ AX, AX            // output offset in bytes

d8c:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R9*1), Y1
	VMOVUPD (SI)(R9*2), Y2
	VMOVUPD (R10), Y3
	VMOVUPD (R10)(R9*1), Y4
	VMOVUPD (R10)(R9*2), Y5
	VMOVUPD (R11), Y6
	VMOVUPD (R11)(R9*1), Y7
	BFLY8
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD Y10, (R12)(AX*1)
	VMOVUPD Y2, (R13)(AX*1)
	VMOVUPD Y9, (R14)(AX*1)
	VMOVUPD Y1, (R15)(AX*1)
	VMOVUPD Y11, (BX)(AX*1)
	VMOVUPD Y3, (DX)(AX*1)
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, AX
	DECQ    CX
	JNZ     d8c
	VZEROUPPER
	RET

// TWPAIR loads the dynamic-block twiddles of exponents e and e+k1 (mod n)
// into Y12 as twA[e&mask]*twB[e>>shift], advancing e (AX) by 2*k1 mod n.
// Registers: R8 twA, R9 twB, R10 mask, CX shift, R11 n, R12 k1.
#define TWPAIR \
	MOVQ        AX, BX; \
	ANDQ        R10, BX; \
	SHLQ        $4, BX; \
	VMOVUPD     (R8)(BX*1), X12; \
	MOVQ        AX, DX; \
	SHRQ        CX, DX; \
	SHLQ        $4, DX; \
	VMOVUPD     (R9)(DX*1), X13; \
	ADDQ        R12, AX; \
	MOVQ        AX, BX; \
	SUBQ        R11, BX; \
	CMOVQCC     BX, AX; \
	MOVQ        AX, BX; \
	ANDQ        R10, BX; \
	SHLQ        $4, BX; \
	VINSERTF128 $1, (R8)(BX*1), Y12, Y12; \
	MOVQ        AX, DX; \
	SHRQ        CX, DX; \
	SHLQ        $4, DX; \
	VINSERTF128 $1, (R9)(DX*1), Y13, Y13; \
	ADDQ        R12, AX; \
	MOVQ        AX, BX; \
	SUBQ        R11, BX; \
	CMOVQCC     BX, AX; \
	CMULR(Y13, Y12)

// TWSTORE multiplies the pair of tile elements at off(SI) by the twiddles of
// TWPAIR and stores them at off(DI).
#define TWSTORE(off) \
	TWPAIR; \
	VMOVUPD off(SI), Y0; \
	CMULR(Y12, Y0); \
	VMOVUPD Y0, off(DI)

// func twiddleTileAVX2(w, buf, twA, twB *complex128, n1, n2, j2lo, n, k int, shift uint)
//
// The lane tile's twiddle pass of processTile: for k1 in [0, n1) and c in
// [0, 8), w[k1*n2 + c] = buf[8*k1 + c] * (twA[e&(k-1)] * twB[e>>shift]) with
// e = (j2lo + c)*k1 mod n, reached by the same increments as the Go loop. w
// points at column j2lo of row 0.
TEXT ·twiddleTileAVX2(SB), NOSPLIT, $0-80
	MOVQ w+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVQ twA+16(FP), R8
	MOVQ twB+24(FP), R9
	MOVQ n2+40(FP), BX
	SHLQ $4, BX
	MOVQ BX, n2+40(FP)     // row stride of w in bytes
	MOVQ n+56(FP), R11
	MOVQ k+64(FP), R10
	DECQ R10               // mask
	MOVQ shift+72(FP), CX
	XORQ R12, R12          // k1
	XORQ R13, R13          // j2lo*k1 mod n

twrow:
	CMPQ R12, n1+32(FP)
	JGE  twdone
	MOVQ R13, AX
	TWSTORE(0)
	TWSTORE(32)
	TWSTORE(64)
	TWSTORE(96)
	ADDQ    n2+40(FP), DI
	ADDQ    $128, SI
	INCQ    R12
	ADDQ    j2lo+48(FP), R13
	MOVQ    R13, BX
	SUBQ    R11, BX
	CMOVQCC BX, R13
	JMP     twrow

twdone:
	VZEROUPPER
	RET

// func demodScatterAVX2(dst, rbuf, demod *complex128, n1, n2, stride int)
//
// The fused demodulation of rowGroupFFTScatter for a full group of eight
// rows: dst[n1*k2 + r] = rbuf[r*stride + k2] * demod[n1*k2 + r] for k2 in
// [0, n2), r in [0, 8). dst and demod point at the group's first row.
TEXT ·demodScatterAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ rbuf+8(FP), SI
	MOVQ demod+16(FP), DX
	MOVQ n1+24(FP), R8
	SHLQ $4, R8
	MOVQ n2+32(FP), CX
	MOVQ stride+40(FP), R9
	SHLQ $4, R9
	LEAQ (SI)(R9*2), R10
	ADDQ R9, R10           // row 3
	LEAQ (R10)(R9*2), R11
	ADDQ R9, R11           // row 6

dsk:
	VMOVUPD     (SI), X0
	VINSERTF128 $1, (SI)(R9*1), Y0, Y0
	VMOVUPD     (DX), Y1
	CMULR(Y1, Y0)
	VMOVUPD     Y0, (DI)
	VMOVUPD     (SI)(R9*2), X0
	VINSERTF128 $1, (R10), Y0, Y0
	VMOVUPD     32(DX), Y1
	CMULR(Y1, Y0)
	VMOVUPD     Y0, 32(DI)
	VMOVUPD     (SI)(R9*4), X0
	VINSERTF128 $1, (R10)(R9*2), Y0, Y0
	VMOVUPD     64(DX), Y1
	CMULR(Y1, Y0)
	VMOVUPD     Y0, 64(DI)
	VMOVUPD     (R11), X0
	VINSERTF128 $1, (R10)(R9*4), Y0, Y0
	VMOVUPD     96(DX), Y1
	CMULR(Y1, Y0)
	VMOVUPD     Y0, 96(DI)
	ADDQ        $16, SI
	ADDQ        $16, R10
	ADDQ        $16, R11
	ADDQ        R8, DI
	ADDQ        R8, DX
	DECQ        CX
	JNZ         dsk
	VZEROUPPER
	RET

// R2BOTH is one step of radix2DemodulateAVX2's first loop, storing with ST:
// dst[q] = (a + b) * d[q] and dst[q+s] = ((a - b) * w) * d[q+s] for the two
// q at SI, DX and DI.
#define R2BOTH(ST) \
	VMOVUPD   (SI), Y0; \
	VMOVUPD   (SI)(R9*1), Y1; \
	VADDPD    Y1, Y0, Y2; \
	VSUBPD    Y1, Y0, Y3; \
	VMOVUPD   (DX), Y4; \
	CMULR(Y4, Y2); \
	ST        Y2, (DI); \
	VMULPD    Y10, Y3, Y12; \
	VPERMILPD $5, Y3, Y3; \
	VMULPD    Y11, Y3, Y13; \
	VADDSUBPD Y13, Y12, Y3; \
	VMOVUPD   (DX)(R9*1), Y4; \
	CMULR(Y4, Y3); \
	ST        Y3, (DI)(R9*1); \
	ADDQ      $32, SI; \
	ADDQ      $32, DX; \
	ADDQ      $32, DI

// R2ONLY is one step of its second loop: dst[q] = (a + b) * d[q] alone.
#define R2ONLY(ST) \
	VMOVUPD (SI), Y0; \
	VMOVUPD (SI)(R9*1), Y1; \
	VADDPD  Y1, Y0, Y2; \
	VMOVUPD (DX), Y4; \
	CMULR(Y4, Y2); \
	ST      Y2, (DI); \
	ADDQ    $32, SI; \
	ADDQ    $32, DX; \
	ADDQ    $32, DI

// func radix2DemodulateAVX2(dst, x, d, w *complex128, s, both, only int)
//
// radix2Demodulate two q at a time: a = x[q], b = x[q+s], dst[q] =
// (a + b) * d[q] for q in [0, 2*(both+only)), and dst[q+s] = ((a - b) * w)
// * d[q+s] for q in [0, 2*both); w is the stage's one twiddle, read at w.
// Where dst is 32-byte aligned (s even keeps dst + s aligned too) every
// store is non-temporal: dst is the caller's output, written once and not
// read here, so its lines are not fetched into the cache to be overwritten.
// One SFENCE orders those stores before the return. An unaligned dst, which
// VMOVNTPD would fault on, takes ordinary stores.
TEXT ·radix2DemodulateAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         d+16(FP), DX
	MOVQ         w+24(FP), R8
	MOVQ         s+32(FP), R9
	SHLQ         $4, R9
	MOVQ         both+40(FP), CX
	MOVQ         only+48(FP), BX
	VBROADCASTSD (R8), Y10
	VBROADCASTSD 8(R8), Y11
	TESTQ        $31, DI
	JNZ          r2both

r2ntboth:
	TESTQ CX, CX
	JZ    r2ntonly
	R2BOTH(VMOVNTPD)
	DECQ  CX
	JMP   r2ntboth

r2ntonly:
	TESTQ BX, BX
	JZ    r2ntdone
	R2ONLY(VMOVNTPD)
	DECQ  BX
	JMP   r2ntonly

r2ntdone:
	SFENCE
	VZEROUPPER
	RET

r2both:
	TESTQ CX, CX
	JZ    r2only
	R2BOTH(VMOVUPD)
	DECQ  CX
	JMP   r2both

r2only:
	TESTQ BX, BX
	JZ    r2done
	R2ONLY(VMOVUPD)
	DECQ  BX
	JMP   r2only

r2done:
	VZEROUPPER
	RET

// ODDLEG forms leg pair j of stageOdd from u_j in A and u_{r-j} in B:
// D = a_j = A + B, A = b_j = A - B.
#define ODDLEG(A, B, D) \
	VADDPD B, A, D; \
	VSUBPD B, A, A

// RHOSTEP adds c*A to RHO (Y4), c the pair constant at off(AX); uses Y10.
#define RHOSTEP(off, A) \
	VBROADCASTSD off(AX), Y10; \
	VMULPD       Y10, A, Y10; \
	VADDPD       Y10, Y4, Y4

// IOTASTEP adds s*B to IOTA (Y5), s the pair constant at off(AX); uses Y10.
#define IOTASTEP(off, B) \
	VBROADCASTSD off(AX), Y10; \
	VMULPD       Y10, B, Y10; \
	VADDPD       Y10, Y5, Y5

// ODDOUT turns rho in Y4 and iota in Y5 into the output pair: Y5 =
// rho - i*iota = (rho.re + iota.im, rho.im - iota.re), Y6 = rho + i*iota =
// (rho.re - iota.im, rho.im + iota.re).
#define ODDOUT \
	VPERMILPD $5, Y5, Y5; \
	VADDSUBPD Y5, Y4, Y6; \
	VXORPD    negall<>(SB), Y5, Y5; \
	VADDSUBPD Y5, Y4, Y5

// PAIR7 computes output pair k of the radix-7 butterfly into Y5 (leg k) and
// Y6 (leg 7-k), from u0 in Y0, a1..a3 in Y7..Y9 and b1..b3 in Y1..Y3, its
// constants c_k1..c_k3 at off(AX) and s_k1..s_k3 at off+72(AX).
#define PAIR7(off) \
	VMOVAPD      Y0, Y4; \
	RHOSTEP(off, Y7); \
	RHOSTEP(off+8, Y8); \
	RHOSTEP(off+16, Y9); \
	VBROADCASTSD off+72(AX), Y5; \
	VMULPD       Y5, Y1, Y5; \
	IOTASTEP(off+80, Y2); \
	IOTASTEP(off+88, Y3); \
	ODDOUT

// func radix7AVX2(y, x *complex128, cs *float64, s, xs int)
//
// stageOdd's untwiddled pass (m = 1) at r = 7 and an even stride s:
// y[q + s*t] from x[q + xs*t], q two at a time, cs the stage's pair
// constants.
TEXT ·radix7AVX2(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI      // DI and SI walk y and x
	MOVQ x+8(FP), SI
	MOVQ cs+16(FP), AX
	MOVQ s+24(FP), R13
	MOVQ xs+32(FP), R8
	MOVQ R13, CX
	SHRQ $1, CX           // CX counts the pairs of q
	SHLQ $4, R13          // R13, R11, R12: leg 1, 3 and 5 output strides in bytes
	LEAQ (R13)(R13*2), R11
	LEAQ (R11)(R13*2), R12
	SHLQ $4, R8           // R8, R9, R10: the same input strides
	LEAQ (R8)(R8*2), R9
	LEAQ (R9)(R8*2), R10

r7q:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VMOVUPD (SI)(R8*4), Y4
	VMOVUPD (SI)(R10*1), Y5
	VMOVUPD (SI)(R9*2), Y6
	ODDLEG(Y1, Y6, Y7)
	VADDPD  Y7, Y0, Y11
	ODDLEG(Y2, Y5, Y8)
	VADDPD  Y8, Y11, Y11
	ODDLEG(Y3, Y4, Y9)
	VADDPD  Y9, Y11, Y11
	VMOVUPD Y11, (DI)
	PAIR7(0)
	VMOVUPD Y5, (DI)(R13*1)
	VMOVUPD Y6, (DI)(R11*2)
	PAIR7(24)
	VMOVUPD Y5, (DI)(R13*2)
	VMOVUPD Y6, (DI)(R12*1)
	PAIR7(48)
	VMOVUPD Y5, (DI)(R11*1)
	VMOVUPD Y6, (DI)(R13*4)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     r7q
	VZEROUPPER
	RET
