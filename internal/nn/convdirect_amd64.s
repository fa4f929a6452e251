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

// func maddRow1AVX(acc []float64, w float64, x []float64)
// maddRow4AVX for one channel: per four columns of x (len(x) > 0, a
// multiple of 4), VMULPD by w, then VADDPD acc, in the same operand order.
TEXT ·maddRow1AVX(SB), NOSPLIT, $0-56
	MOVQ         acc_base+0(FP), DI
	VBROADCASTSD w+24(FP), Y0
	MOVQ         x_base+32(FP), BX
	MOVQ         x_len+40(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
loop1:
	VMOVUPD (BX)(AX*1), Y4
	VMULPD  Y0, Y4, Y5
	VADDPD  (DI)(AX*1), Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop1
	VZEROUPPER
	RET

// func maddRow4x3AVX(acc []float64, wt *[12]float64, x []float64, rev bool)
// maddRow4AVX for three taps at once: per four columns j of acc (len(x) − 2
// of them, a multiple of 4 > 0) and per channel c, the sum
// ((acc + x[j]·wt[c]) + x[j+1]·wt[4+c]) + x[j+2]·wt[8+c], each step one
// VMULPD and one VADDPD in maddRow4AVX's operand order, so the bits are
// those of three maddRow4AVX calls. rev reads x[j+2], x[j+1], x[j] instead.
// Y0–Y11 hold the twelve weights and Y12, Y13 the first two x vectors; the
// third is reloaded per channel into Y14, the product register, as no
// register is left for it.
TEXT ·maddRow4x3AVX(SB), NOSPLIT, $0-57
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SUBQ $2, CX
	SHLQ $3, CX
	LEAQ 8(BX), R8
	LEAQ 16(BX), R9
	CMPB rev+56(FP), $0
	JEQ  fwd3
	XCHGQ BX, R9
fwd3:
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD 32(SI), Y4
	VBROADCASTSD 40(SI), Y5
	VBROADCASTSD 48(SI), Y6
	VBROADCASTSD 56(SI), Y7
	VBROADCASTSD 64(SI), Y8
	VBROADCASTSD 72(SI), Y9
	VBROADCASTSD 80(SI), Y10
	VBROADCASTSD 88(SI), Y11
	XORQ AX, AX
loop3:
	VMOVUPD (BX)(AX*1), Y12
	VMOVUPD (R8)(AX*1), Y13
	VMULPD  Y0, Y12, Y15
	VADDPD  (DI)(AX*1), Y15, Y15
	VMULPD  Y4, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y8, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (DI)(AX*1)
	VMULPD  Y1, Y12, Y15
	VADDPD  (const_rowStride*8)(DI)(AX*1), Y15, Y15
	VMULPD  Y5, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y9, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Y2, Y12, Y15
	VADDPD  (const_rowStride*16)(DI)(AX*1), Y15, Y15
	VMULPD  Y6, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y10, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Y3, Y12, Y15
	VADDPD  (const_rowStride*24)(DI)(AX*1), Y15, Y15
	VMULPD  Y7, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y11, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*24)(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop3
	VZEROUPPER
	RET

// func maddRow4AVX512(acc []float64, wt *[4]float64, x []float64)
// maddRow4AVX eight columns at a time (len(x) > 0, a multiple of 8), on
// ZMM registers, in the same operand order.
TEXT ·maddRow4AVX512(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SHLQ $3, CX
	VBROADCASTSD 0(SI), Z0
	VBROADCASTSD 8(SI), Z1
	VBROADCASTSD 16(SI), Z2
	VBROADCASTSD 24(SI), Z3
	XORQ AX, AX
loop8:
	VMOVUPD (BX)(AX*1), Z4
	VMULPD  Z0, Z4, Z5
	VADDPD  (DI)(AX*1), Z5, Z5
	VMOVUPD Z5, (DI)(AX*1)
	VMULPD  Z1, Z4, Z6
	VADDPD  (const_rowStride*8)(DI)(AX*1), Z6, Z6
	VMOVUPD Z6, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Z2, Z4, Z7
	VADDPD  (const_rowStride*16)(DI)(AX*1), Z7, Z7
	VMOVUPD Z7, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Z3, Z4, Z8
	VADDPD  (const_rowStride*24)(DI)(AX*1), Z8, Z8
	VMOVUPD Z8, (const_rowStride*24)(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop8
	VZEROUPPER
	RET

// func maddRow1AVX512(acc []float64, w float64, x []float64)
// maddRow1AVX eight columns at a time (len(x) > 0, a multiple of 8).
TEXT ·maddRow1AVX512(SB), NOSPLIT, $0-56
	MOVQ         acc_base+0(FP), DI
	VBROADCASTSD w+24(FP), Z0
	MOVQ         x_base+32(FP), BX
	MOVQ         x_len+40(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
loop18:
	VMOVUPD (BX)(AX*1), Z4
	VMULPD  Z0, Z4, Z5
	VADDPD  (DI)(AX*1), Z5, Z5
	VMOVUPD Z5, (DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop18
	VZEROUPPER
	RET

// func maddRow4x3AVX512(acc []float64, wt *[12]float64, x []float64, rev bool)
// maddRow4x3AVX eight columns at a time (len(x) − 2 of them, a multiple of
// 8 > 0), in the same operand order. Z0–Z11 hold the twelve weights and
// Z12–Z14 the three x vectors, loaded once for the four channels.
TEXT ·maddRow4x3AVX512(SB), NOSPLIT, $0-57
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SUBQ $2, CX
	SHLQ $3, CX
	LEAQ 8(BX), R8
	LEAQ 16(BX), R9
	CMPB rev+56(FP), $0
	JEQ  fwd38
	XCHGQ BX, R9
fwd38:
	VBROADCASTSD 0(SI), Z0
	VBROADCASTSD 8(SI), Z1
	VBROADCASTSD 16(SI), Z2
	VBROADCASTSD 24(SI), Z3
	VBROADCASTSD 32(SI), Z4
	VBROADCASTSD 40(SI), Z5
	VBROADCASTSD 48(SI), Z6
	VBROADCASTSD 56(SI), Z7
	VBROADCASTSD 64(SI), Z8
	VBROADCASTSD 72(SI), Z9
	VBROADCASTSD 80(SI), Z10
	VBROADCASTSD 88(SI), Z11
	XORQ AX, AX
loop38:
	VMOVUPD (BX)(AX*1), Z12
	VMOVUPD (R8)(AX*1), Z13
	VMOVUPD (R9)(AX*1), Z14
	VMULPD  Z0, Z12, Z15
	VADDPD  (DI)(AX*1), Z15, Z15
	VMULPD  Z4, Z13, Z16
	VADDPD  Z15, Z16, Z15
	VMULPD  Z8, Z14, Z16
	VADDPD  Z15, Z16, Z15
	VMOVUPD Z15, (DI)(AX*1)
	VMULPD  Z1, Z12, Z17
	VADDPD  (const_rowStride*8)(DI)(AX*1), Z17, Z17
	VMULPD  Z5, Z13, Z18
	VADDPD  Z17, Z18, Z17
	VMULPD  Z9, Z14, Z18
	VADDPD  Z17, Z18, Z17
	VMOVUPD Z17, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Z2, Z12, Z19
	VADDPD  (const_rowStride*16)(DI)(AX*1), Z19, Z19
	VMULPD  Z6, Z13, Z20
	VADDPD  Z19, Z20, Z19
	VMULPD  Z10, Z14, Z20
	VADDPD  Z19, Z20, Z19
	VMOVUPD Z19, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Z3, Z12, Z21
	VADDPD  (const_rowStride*24)(DI)(AX*1), Z21, Z21
	VMULPD  Z7, Z13, Z22
	VADDPD  Z21, Z22, Z21
	VMULPD  Z11, Z14, Z22
	VADDPD  Z21, Z22, Z21
	VMOVUPD Z21, (const_rowStride*24)(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop38
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

// func hasAVX512() bool: the hasAVX conditions, CPUID.7.0:EBX has AVX512F
// (bit 16), and XCR0 shows the OS saves the XMM, YMM, opmask and ZMM
// registers (bits 1, 2, 5, 6, 7).
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   done512
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done512
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x10000, BX
	JEQ   done512
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	SETEQ ret+0(FP)
done512:
	RET
