//go:build amd64 && !purego

#include "textflag.h"

// func ukernel4x8asm(k int, a, b *float64, c *float64, ldc int)
//
// 4×8 GEMM micro-kernel: C[r,j] += Σ_p a[p*4+r] · b[p*8+j].
// Accumulator tile in Y0–Y7 (row r = Y(2r), Y(2r+1)); per k step:
// two 4-wide loads of b, four broadcasts of a, eight FMAs.
TEXT ·ukernel4x8asm(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8              // row stride in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    writeback

	// Unroll by 2 when k is even-sized enough; handle odd leading step.
	MOVQ CX, R9
	ANDQ $1, R9
	JZ   kloop2
	// single step
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JZ           writeback

kloop2:
	// step 0
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7

	// step 1
	VMOVUPD      64(DI), Y14
	VMOVUPD      96(DI), Y15
	VBROADCASTSD 32(SI), Y10
	VFMADD231PD  Y14, Y10, Y0
	VFMADD231PD  Y15, Y10, Y1
	VBROADCASTSD 40(SI), Y11
	VFMADD231PD  Y14, Y11, Y2
	VFMADD231PD  Y15, Y11, Y3
	VBROADCASTSD 48(SI), Y12
	VFMADD231PD  Y14, Y12, Y4
	VFMADD231PD  Y15, Y12, Y5
	VBROADCASTSD 56(SI), Y13
	VFMADD231PD  Y14, Y13, Y6
	VFMADD231PD  Y15, Y13, Y7

	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JNZ  kloop2

writeback:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX

	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R8, DX

	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R8, DX

	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)

	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TRANSPOSE4 transposes the 4×4 block held row-wise in A, B, C, D (four
// doubles each) into columns, in place, through T0–T3.
#define TRANSPOSE4(A, B, C, D, T0, T1, T2, T3) \
	VUNPCKLPD  B, A, T0      \
	VUNPCKHPD  B, A, T1      \
	VUNPCKLPD  D, C, T2      \
	VUNPCKHPD  D, C, T3      \
	VPERM2F128 $0x20, T2, T0, A \
	VPERM2F128 $0x20, T3, T1, B \
	VPERM2F128 $0x31, T2, T0, C \
	VPERM2F128 $0x31, T3, T1, D

// func transposeRows8asm(yp, b *float64, bStride, n4 int, unpack bool)
//
// Moves the first n4 (a multiple of 4) columns of the 8 rows of b (row
// stride bStride elements) to or from their k-major packed form
// yp[p·8 + r] = b[r, p], four columns at a time: two 4×4 transposes per
// group, in registers.
TEXT ·transposeRows8asm(SB), NOSPLIT, $0-33
	MOVQ    yp+0(FP), DI
	MOVQ    b+8(FP), SI
	MOVQ    bStride+16(FP), R8
	MOVQ    n4+24(FP), CX
	MOVBLZX unpack+32(FP), AX
	SHLQ    $3, R8                 // row stride in bytes
	LEAQ    (R8)(R8*2), R10        // 3 rows
	LEAQ    (R8)(R8*4), R11        // 5 rows
	LEAQ    (R10)(R8*4), R12       // 7 rows
	SHRQ    $2, CX                 // groups of four columns
	JZ      tdone
	TESTQ   AX, AX
	JNZ     tunpack

tpack:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R10*1), Y3
	VMOVUPD (SI)(R8*4), Y4
	VMOVUPD (SI)(R11*1), Y5
	VMOVUPD (SI)(R10*2), Y6
	VMOVUPD (SI)(R12*1), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15)
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y5, 96(DI)
	VMOVUPD Y2, 128(DI)
	VMOVUPD Y6, 160(DI)
	VMOVUPD Y3, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $32, SI
	ADDQ    $256, DI
	DECQ    CX
	JNZ     tpack
	JMP     tdone

tunpack:
	VMOVUPD (DI), Y0
	VMOVUPD 64(DI), Y1
	VMOVUPD 128(DI), Y2
	VMOVUPD 192(DI), Y3
	VMOVUPD 32(DI), Y4
	VMOVUPD 96(DI), Y5
	VMOVUPD 160(DI), Y6
	VMOVUPD 224(DI), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15)
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y2, (SI)(R8*2)
	VMOVUPD Y3, (SI)(R10*1)
	VMOVUPD Y4, (SI)(R8*4)
	VMOVUPD Y5, (SI)(R11*1)
	VMOVUPD Y6, (SI)(R10*2)
	VMOVUPD Y7, (SI)(R12*1)
	ADDQ    $32, SI
	ADDQ    $256, DI
	DECQ    CX
	JNZ     tunpack

tdone:
	VZEROUPPER
	RET

// func packRows4asm(dst, a *float64, aStride, k4 int, alpha float64)
//
// Packs the first k4 (a multiple of 4) columns of the MR = 4 rows at a (row
// stride aStride elements) k-major and scaled, dst[p·4 + r] = alpha·a[r, p],
// four columns at a time through one 4×4 register transpose.
TEXT ·packRows4asm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         aStride+16(FP), R8
	MOVQ         k4+24(FP), CX
	VBROADCASTSD alpha+32(FP), Y15
	SHLQ         $3, R8                 // row stride in bytes
	LEAQ         (R8)(R8*2), R10        // 3 rows
	SHRQ         $2, CX                 // groups of four columns
	JZ           pdone

ploop:
	VMULPD  (SI), Y15, Y0
	VMULPD  (SI)(R8*1), Y15, Y1
	VMULPD  (SI)(R8*2), Y15, Y2
	VMULPD  (SI)(R10*1), Y15, Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $32, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     ploop

pdone:
	VZEROUPPER
	RET
