#include "textflag.h"

// func dotRowsAVX2(out *complex128, taps *float64, win *complex128, rows, b int)
//
// out[a] = sum_k taps[a][k]*win[k] for a in [0, rows), where row a of taps is
// the 2*b doubles [r0, r0, r1, r1, ...] at taps + a*b*16 (window.Filter's
// LaneTapsDup), bit for bit what dotReal returns for row a: one YMM register
// per row is dotReal's [re0, im0, re1, im1]; the b%4 tail taps are added
// first into its low half; each group of four taps then adds
// [r0,r0,r1,r1]*[w0,w1] + [r2,r2,r3,r3]*[w2,w3] to it, the products summed
// before they meet the accumulator; the two halves are added at the end.
// Multiplies and adds only, each rounded: no FMA.
//
// A tap and a window element are both 16 bytes, so one byte offset (AX)
// indexes both. Rows go four at a time, sharing the two window loads of a
// group, then one at a time. Reads rows*b*16 bytes of taps and b*16 of win,
// writes rows*16 of out.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ taps+8(FP), SI
	MOVQ win+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ b+32(FP), R9
	MOVQ R9, R10
	ANDQ $-4, R10
	SHLQ $4, R10 // byte offset of the tail taps: (b &^ 3)*16
	SHLQ $4, R9  // byte length of a row: b*16

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
	MOVQ R10, AX

tail4:
	CMPQ AX, R9
	JGE  body4
	VMOVUPD (DX)(AX*1), X8
	VMULPD (SI)(AX*1), X8, X4
	VMULPD (R11)(AX*1), X8, X5
	VMULPD (R12)(AX*1), X8, X6
	VMULPD (R13)(AX*1), X8, X7
	VADDPD X4, X0, X0
	VADDPD X5, X1, X1
	VADDPD X6, X2, X2
	VADDPD X7, X3, X3
	ADDQ $16, AX
	JMP  tail4

body4:
	XORQ AX, AX

loop4:
	CMPQ AX, R10
	JGE  store4
	VMOVUPD (DX)(AX*1), Y8
	VMOVUPD 32(DX)(AX*1), Y9
	VMULPD (SI)(AX*1), Y8, Y4
	VMULPD 32(SI)(AX*1), Y9, Y10
	VMULPD (R11)(AX*1), Y8, Y5
	VMULPD 32(R11)(AX*1), Y9, Y11
	VMULPD (R12)(AX*1), Y8, Y6
	VMULPD 32(R12)(AX*1), Y9, Y12
	VMULPD (R13)(AX*1), Y8, Y7
	VMULPD 32(R13)(AX*1), Y9, Y13
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ $64, AX
	JMP  loop4

store4:
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VADDPD X4, X0, X0
	VADDPD X5, X1, X1
	VADDPD X6, X2, X2
	VADDPD X7, X3, X3
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	VMOVUPD X2, 32(DI)
	VMOVUPD X3, 48(DI)
	ADDQ $64, DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, CX
	JMP  rows4

rows1:
	TESTQ CX, CX
	JLE  done
	VXORPD X0, X0, X0
	MOVQ R10, AX

tail1:
	CMPQ AX, R9
	JGE  body1
	VMOVUPD (DX)(AX*1), X8
	VMULPD (SI)(AX*1), X8, X4
	VADDPD X4, X0, X0
	ADDQ $16, AX
	JMP  tail1

body1:
	XORQ AX, AX

loop1:
	CMPQ AX, R10
	JGE  store1
	VMOVUPD (DX)(AX*1), Y8
	VMOVUPD 32(DX)(AX*1), Y9
	VMULPD (SI)(AX*1), Y8, Y4
	VMULPD 32(SI)(AX*1), Y9, Y10
	VADDPD Y10, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $64, AX
	JMP  loop1

store1:
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VMOVUPD X0, (DI)
	ADDQ $16, DI
	ADDQ R9, SI
	DECQ CX
	JMP  rows1

done:
	VZEROUPPER
	RET
