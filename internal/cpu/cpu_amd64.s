#include "textflag.h"

// func probe() (avx2, fma, avx512f bool)
//
// A VEX-encoded YMM instruction is usable when the processor has AVX and the
// OS has turned XSAVE on (leaf 1, ECX bits 28 and 27), and XCR0 says the OS
// saves both the XMM and the YMM halves (bits 1 and 2). Then FMA is CPUID
// leaf 1's ECX bit 12 and AVX2 leaf 7's EBX bit 5. An EVEX-encoded ZMM
// instruction further needs XCR0 to cover the opmask registers, the upper
// halves of ZMM0-15 and ZMM16-31 (bits 5, 6 and 7: XCR0 & 0xE6 == 0xE6), and
// AVX512F is leaf 7's EBX bit 16.
TEXT ·probe(SB), NOSPLIT, $0-3
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)
	MOVB $0, avx512f+2(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, SI // highest standard leaf
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DI // leaf 1's feature bits
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	MOVL AX, R8 // XCR0
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	TESTL $0x1000, DI
	JZ   leaf7
	MOVB $1, fma+1(FP)

leaf7:
	CMPL SI, $7
	JLT  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   avx512
	MOVB $1, avx2+0(FP)

avx512:
	TESTL $0x10000, BX
	JZ    done
	ANDL  $0xE6, R8
	CMPL  R8, $0xE6
	JNE   done
	MOVB  $1, avx512f+2(FP)

done:
	RET
