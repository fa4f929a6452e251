#include "textflag.h"
#include "go_asm.h"

// func maddRow4AVX(acc []float64, wt *[4]float64, x []float64)
// Per four columns of x (len(x) > 0, a multiple of 4): per channel VMULPD
// by wt[c], then VADDPD acc, in the operand order of the Go MULSD, ADDSD.
TEXT ·maddRow4AVX(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SHLQ $3, CX
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	XORQ AX, AX
loop:
	VMOVUPD (BX)(AX*1), Y4
	VMULPD  Y0, Y4, Y5
	VADDPD  (DI)(AX*1), Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	VMULPD  Y1, Y4, Y6
	VADDPD  (const_rowStride*8)(DI)(AX*1), Y6, Y6
	VMOVUPD Y6, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Y2, Y4, Y7
	VADDPD  (const_rowStride*16)(DI)(AX*1), Y7, Y7
	VMOVUPD Y7, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Y3, Y4, Y8
	VADDPD  (const_rowStride*24)(DI)(AX*1), Y8, Y8
	VMOVUPD Y8, (const_rowStride*24)(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func hasAVX() bool: CPUID.1:ECX has OSXSAVE and AVX (bits 27, 28), and
// XCR0 shows the OS saves the XMM and YMM registers (bits 1, 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVB  $0, ret+0(FP)
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	SETEQ ret+0(FP)
done:
	RET
