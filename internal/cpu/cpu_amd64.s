#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), the processor has
// AVX and the OS has turned XSAVE on (leaf 1, ECX bits 28 and 27), and XCR0
// says the OS saves both the XMM and the YMM halves (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   done
	MOVB $1, ret+0(FP)
done:
	RET
