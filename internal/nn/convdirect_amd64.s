#include "textflag.h"
#include "go_asm.h"

// SUMS_FROM sets where a kernel reads the sums it adds to: R10 for
// channel 0, R10 + c·R11 for channel c (R12 = 3·R11), and R13, what R10
// moves by per step. A nil from (an *accInit, or one of its rows) reads
// the accumulator rows at DI, rowStride apart, moving with the step;
// otherwise from's rows, 64 bytes apart, which stay put: a job's first
// tap. The loops read the sums only through R10, so the first tap and
// every later one run the same instructions.
#define SUMS_FROM(from, step) \
	MOVQ    from, R10; \
	MOVQ    $64, R11; \
	XORQ    R13, R13; \
	TESTQ   R10, R10; \
	CMOVQEQ DI, R10; \
	MOVQ    $(const_rowStride*8), R14; \
	CMOVQEQ R14, R11; \
	MOVQ    $step, R14; \
	CMOVQEQ R14, R13; \
	LEAQ    (R11)(R11*2), R12

// func maddRow4AVX(acc []float64, wt *[4]float64, x []float64, from *accInit)
// Per four columns of x (len(x) > 0, a multiple of 4): per channel VMULPD
// by wt[c], then VADDPD the sums so far (acc, or from's row c), in the
// operand order of the Go MULSD, ADDSD.
TEXT ·maddRow4AVX(SB), NOSPLIT, $0-64
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SHLQ $3, CX
	SUMS_FROM(from+56(FP), 32)
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	XORQ AX, AX
loop:
	VMOVUPD (BX)(AX*1), Y4
	VMULPD  Y0, Y4, Y5
	VADDPD  (R10), Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	VMULPD  Y1, Y4, Y6
	VADDPD  (R10)(R11*1), Y6, Y6
	VMOVUPD Y6, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Y2, Y4, Y7
	VADDPD  (R10)(R11*2), Y7, Y7
	VMOVUPD Y7, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Y3, Y4, Y8
	VADDPD  (R10)(R12*1), Y8, Y8
	VMOVUPD Y8, (const_rowStride*24)(DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func maddRow1AVX(acc []float64, w float64, x []float64, from *[8]float64)
// maddRow4AVX for one channel: per four columns of x (len(x) > 0, a
// multiple of 4), VMULPD by w, then VADDPD the sums so far (acc, or from),
// in the same operand order.
TEXT ·maddRow1AVX(SB), NOSPLIT, $0-64
	MOVQ         acc_base+0(FP), DI
	VBROADCASTSD w+24(FP), Y0
	MOVQ         x_base+32(FP), BX
	MOVQ         x_len+40(FP), CX
	SHLQ         $3, CX
	SUMS_FROM(from+56(FP), 32)
	XORQ         AX, AX
loop1:
	VMOVUPD (BX)(AX*1), Y4
	VMULPD  Y0, Y4, Y5
	VADDPD  (R10), Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop1
	VZEROUPPER
	RET

// func maddRow4x3AVX(acc []float64, wt *[12]float64, x []float64, rev bool, from *accInit)
// maddRow4AVX for three taps at once: per four columns j of acc (len(x) − 2
// of them, a multiple of 4 > 0) and per channel c, the sum
// ((s + x[j]·wt[c]) + x[j+1]·wt[4+c]) + x[j+2]·wt[8+c], s the sums so far
// (acc, or from's row c), each step one VMULPD and one VADDPD in
// maddRow4AVX's operand order, so the bits are those of three maddRow4AVX
// calls. rev reads x[j+2], x[j+1], x[j] instead. Y0–Y11 hold the twelve
// weights and Y12, Y13 the first two x vectors; the third is reloaded per
// channel into Y14, the product register, as no register is left for it.
TEXT ·maddRow4x3AVX(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	SUMS_FROM(from+64(FP), 32)
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
	VADDPD  (R10), Y15, Y15
	VMULPD  Y4, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y8, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (DI)(AX*1)
	VMULPD  Y1, Y12, Y15
	VADDPD  (R10)(R11*1), Y15, Y15
	VMULPD  Y5, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y9, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Y2, Y12, Y15
	VADDPD  (R10)(R11*2), Y15, Y15
	VMULPD  Y6, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y10, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Y3, Y12, Y15
	VADDPD  (R10)(R12*1), Y15, Y15
	VMULPD  Y7, Y13, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD (R9)(AX*1), Y14
	VMULPD  Y11, Y14, Y14
	VADDPD  Y15, Y14, Y15
	VMOVUPD Y15, (const_rowStride*24)(DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop3
	VZEROUPPER
	RET

// func maddRow4AVX512(acc []float64, wt *[4]float64, x []float64, from *accInit)
// maddRow4AVX eight columns at a time (len(x) > 0, a multiple of 8), on
// ZMM registers, in the same operand order.
TEXT ·maddRow4AVX512(SB), NOSPLIT, $0-64
	MOVQ acc_base+0(FP), DI
	MOVQ wt+24(FP), SI
	MOVQ x_base+32(FP), BX
	MOVQ x_len+40(FP), CX
	SHLQ $3, CX
	SUMS_FROM(from+56(FP), 64)
	VBROADCASTSD 0(SI), Z0
	VBROADCASTSD 8(SI), Z1
	VBROADCASTSD 16(SI), Z2
	VBROADCASTSD 24(SI), Z3
	XORQ AX, AX
loop8:
	VMOVUPD (BX)(AX*1), Z4
	VMULPD  Z0, Z4, Z5
	VADDPD  (R10), Z5, Z5
	VMOVUPD Z5, (DI)(AX*1)
	VMULPD  Z1, Z4, Z6
	VADDPD  (R10)(R11*1), Z6, Z6
	VMOVUPD Z6, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Z2, Z4, Z7
	VADDPD  (R10)(R11*2), Z7, Z7
	VMOVUPD Z7, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Z3, Z4, Z8
	VADDPD  (R10)(R12*1), Z8, Z8
	VMOVUPD Z8, (const_rowStride*24)(DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop8
	VZEROUPPER
	RET

// func maddRow1AVX512(acc []float64, w float64, x []float64, from *[8]float64)
// maddRow1AVX eight columns at a time (len(x) > 0, a multiple of 8).
TEXT ·maddRow1AVX512(SB), NOSPLIT, $0-64
	MOVQ         acc_base+0(FP), DI
	VBROADCASTSD w+24(FP), Z0
	MOVQ         x_base+32(FP), BX
	MOVQ         x_len+40(FP), CX
	SHLQ         $3, CX
	SUMS_FROM(from+56(FP), 64)
	XORQ         AX, AX
loop18:
	VMOVUPD (BX)(AX*1), Z4
	VMULPD  Z0, Z4, Z5
	VADDPD  (R10), Z5, Z5
	VMOVUPD Z5, (DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop18
	VZEROUPPER
	RET

// func maddRow4x3AVX512(acc []float64, wt *[12]float64, x []float64, rev bool, from *accInit)
// maddRow4x3AVX eight columns at a time (len(x) − 2 of them, a multiple of
// 8 > 0), in the same operand order. Z0–Z11 hold the twelve weights and
// Z12–Z14 the three x vectors, loaded once for the four channels.
TEXT ·maddRow4x3AVX512(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	SUMS_FROM(from+64(FP), 64)
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
	VADDPD  (R10), Z15, Z15
	VMULPD  Z4, Z13, Z16
	VADDPD  Z15, Z16, Z15
	VMULPD  Z8, Z14, Z16
	VADDPD  Z15, Z16, Z15
	VMOVUPD Z15, (DI)(AX*1)
	VMULPD  Z1, Z12, Z17
	VADDPD  (R10)(R11*1), Z17, Z17
	VMULPD  Z5, Z13, Z18
	VADDPD  Z17, Z18, Z17
	VMULPD  Z9, Z14, Z18
	VADDPD  Z17, Z18, Z17
	VMOVUPD Z17, (const_rowStride*8)(DI)(AX*1)
	VMULPD  Z2, Z12, Z19
	VADDPD  (R10)(R11*2), Z19, Z19
	VMULPD  Z6, Z13, Z20
	VADDPD  Z19, Z20, Z19
	VMULPD  Z10, Z14, Z20
	VADDPD  Z19, Z20, Z19
	VMOVUPD Z19, (const_rowStride*16)(DI)(AX*1)
	VMULPD  Z3, Z12, Z21
	VADDPD  (R10)(R12*1), Z21, Z21
	VMULPD  Z7, Z13, Z22
	VADDPD  Z21, Z22, Z21
	VMULPD  Z11, Z14, Z22
	VADDPD  Z21, Z22, Z21
	VMOVUPD Z21, (const_rowStride*24)(DI)(AX*1)
	ADDQ    R13, R10
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loop38
	VZEROUPPER
	RET

// func epilogueAVX(dst, src []float64, e *epilogue)
// The write-out's epilogue four elements at a time (len(src) > 0, a
// multiple of 4), each step the instruction of the Go operation in its
// operand order: VADDPD b; with e.bn, VSUBPD mu, VMULPD g, VMULPD inv,
// VADDPD beta; with e.leaky, VCMPPD v < +0 (LT_OQ: false for ±0 and NaN)
// and VBLENDVPD of v·alpha where it holds. The flags do not change inside
// a call, so their branches cost no mispredictions.
TEXT ·epilogueAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	MOVQ         e+48(FP), BX
	SHLQ         $3, CX
	VBROADCASTSD epilogue_b(BX), Y0
	VBROADCASTSD epilogue_mu(BX), Y1
	VBROADCASTSD epilogue_g(BX), Y2
	VBROADCASTSD epilogue_inv(BX), Y3
	VBROADCASTSD epilogue_beta(BX), Y4
	VBROADCASTSD epilogue_alpha(BX), Y5
	VXORPD       Y6, Y6, Y6
	MOVBQZX      epilogue_bn(BX), R8
	MOVBQZX      epilogue_leaky(BX), R9
	XORQ         AX, AX
loope:
	VMOVUPD (SI)(AX*1), Y7
	VADDPD  Y0, Y7, Y7
	TESTQ   R8, R8
	JEQ     nobn
	VSUBPD  Y1, Y7, Y7
	VMULPD  Y2, Y7, Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y4, Y7, Y7
nobn:
	TESTQ     R9, R9
	JEQ       store
	VCMPPD    $0x11, Y6, Y7, Y8
	VMULPD    Y5, Y7, Y9
	VBLENDVPD Y8, Y9, Y7, Y7
store:
	VMOVUPD Y7, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loope
	VZEROUPPER
	RET

// func epilogueAVX512(dst, src []float64, e *epilogue)
// epilogueAVX eight elements at a time (len(src) > 0, a multiple of 8):
// the compare writes K1, and a VMULPD by alpha merged under K1 is the
// blend.
TEXT ·epilogueAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	MOVQ         e+48(FP), BX
	SHLQ         $3, CX
	VBROADCASTSD epilogue_b(BX), Z0
	VBROADCASTSD epilogue_mu(BX), Z1
	VBROADCASTSD epilogue_g(BX), Z2
	VBROADCASTSD epilogue_inv(BX), Z3
	VBROADCASTSD epilogue_beta(BX), Z4
	VBROADCASTSD epilogue_alpha(BX), Z5
	VPXORQ       Z6, Z6, Z6
	MOVBQZX      epilogue_bn(BX), R8
	MOVBQZX      epilogue_leaky(BX), R9
	XORQ         AX, AX
loope8:
	VMOVUPD (SI)(AX*1), Z7
	VADDPD  Z0, Z7, Z7
	TESTQ   R8, R8
	JEQ     nobn8
	VSUBPD  Z1, Z7, Z7
	VMULPD  Z2, Z7, Z7
	VMULPD  Z3, Z7, Z7
	VADDPD  Z4, Z7, Z7
nobn8:
	TESTQ  R9, R9
	JEQ    store8
	VCMPPD $0x11, Z6, Z7, K1
	VMULPD Z5, Z7, K1, Z7
store8:
	VMOVUPD Z7, (DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     loope8
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// func maxRow2AVX(out, x []float64, w, hw, kd int)
// maxRow for k = 2 over four windows at a time (len(out) > 0, a multiple
// of 4): window i takes x[r + 2i] and x[r + 2i + 1] of the rows r = kz·hw
// + ky·w, kz < kd, ky < 2, in that order. A VUNPCKLPD and a VUNPCKHPD
// split eight columns into the windows' first and second columns, in the
// window order 0, 2, 1, 3, and per row the best so far becomes
// VMAXPD(first, best), then VMAXPD(second, best): VMAXPD(v, best) is
// v > best ? v : best, NaN, ±0 and ties included. The best starts at −Inf,
// and is put back into window order before the store.
TEXT ·maxRow2AVX(SB), NOSPLIT, $0-72
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	MOVQ         w+48(FP), R8
	MOVQ         hw+56(FP), R9
	MOVQ         kd+64(FP), R10
	SHLQ         $3, CX
	SHLQ         $3, R8
	SHLQ         $3, R9
	VBROADCASTSD negInf<>(SB), Y15
	XORQ         AX, AX
loopm:
	VMOVAPD Y15, Y0
	LEAQ    (SI)(AX*2), R12
	MOVQ    R10, R11
planem:
	VMOVUPD   (R12), Y1
	VMOVUPD   32(R12), Y2
	VUNPCKLPD Y2, Y1, Y3
	VUNPCKHPD Y2, Y1, Y4
	VMAXPD    Y0, Y3, Y0
	VMAXPD    Y0, Y4, Y0
	VMOVUPD   (R12)(R8*1), Y1
	VMOVUPD   32(R12)(R8*1), Y2
	VUNPCKLPD Y2, Y1, Y3
	VUNPCKHPD Y2, Y1, Y4
	VMAXPD    Y0, Y3, Y0
	VMAXPD    Y0, Y4, Y0
	ADDQ      R9, R12
	DECQ      R11
	JNZ       planem
	VPERM2F128 $1, Y0, Y0, Y1
	VPERMILPD  $5, Y1, Y1
	VBLENDPD   $6, Y1, Y0, Y0
	VMOVUPD    Y0, (DI)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        loopm
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
