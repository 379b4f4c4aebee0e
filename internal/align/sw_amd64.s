//go:build amd64 && !purego

#include "textflag.h"

// func haveAVX2() bool
//
// AVX2 needs CPUID.1:ECX.OSXSAVE and AVX, XCR0 with the XMM and YMM state
// bits set, and CPUID.(7,0):EBX.AVX2.
TEXT ·haveAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func swStriped16(profile []int16, subject []byte, class *[256]uint8, buf []int16, segLen, gapO, gapE int) int
//
// Registers: SI subject, CX residues left, R8 class map, R9 profile,
// R10 bytes per column (segLen*32), R11 H column being written, R12 the
// previous H column, R13 E, DX this residue's profile column, DI the
// vector offset within a column.
// Y0 H, Y1 F, Y2 E, Y3 running best, Y4 zero, Y5 gapOE, Y6 gapE, Y7 gapO,
// Y8 -32768 in lane 0 and 0 elsewhere, Y9 -gapOE, Y10 scratch.
TEXT ·swStriped16(SB), NOSPLIT, $0-112
	MOVQ profile_base+0(FP), R9
	MOVQ subject_base+24(FP), SI
	MOVQ subject_len+32(FP), CX
	MOVQ class+48(FP), R8
	MOVQ buf_base+56(FP), R11
	MOVQ segLen+80(FP), R10
	SHLQ $5, R10
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13

	MOVQ         gapO+88(FP), AX
	VMOVQ        AX, X7
	VPBROADCASTW X7, Y7
	MOVQ         gapE+96(FP), AX
	VMOVQ        AX, X6
	VPBROADCASTW X6, Y6
	VPADDW       Y7, Y6, Y5
	VPXOR        Y4, Y4, Y4
	VPSUBW       Y5, Y4, Y9
	VPXOR        Y3, Y3, Y3
	MOVL         $0x8000, AX
	VMOVD        AX, X8

	TESTQ CX, CX
	JZ    done

column:
	MOVBQZX (SI), AX
	MOVBQZX (R8)(AX*1), AX
	IMULQ   R10, AX
	LEAQ    (R9)(AX*1), DX

	// The diagonal of each lane's first vector is the previous column's
	// last vector shifted up one lane, with the border's 0 in lane 0.
	VMOVDQU    Y9, Y1
	VMOVDQU    -32(R11)(R10*1), Y0
	VPERM2I128 $0x08, Y0, Y0, Y10
	VPALIGNR   $14, Y10, Y0, Y0
	XCHGQ      R11, R12
	XORQ       DI, DI

first:
	VPADDSW (DX)(DI*1), Y0, Y0
	VMOVDQU (R13)(DI*1), Y2
	VPMAXSW Y2, Y0, Y0
	VPMAXSW Y1, Y0, Y0
	VPMAXSW Y4, Y0, Y0
	VPMAXSW Y0, Y3, Y3
	VMOVDQU Y0, (R11)(DI*1)
	VPSUBSW Y5, Y0, Y0
	VPSUBSW Y6, Y2, Y2
	VPMAXSW Y0, Y2, Y2
	VMOVDQU Y2, (R13)(DI*1)
	VPSUBSW Y6, Y1, Y1
	VPMAXSW Y0, Y1, Y1
	VMOVDQU (R12)(DI*1), Y0 // the next vector's diagonal (past the end: unused)
	ADDQ    $32, DI
	CMPQ    DI, R10
	JLT     first

	// Lazy F: carry the F leaving each lane into the next lane, from its
	// first vector on, while some lane's F exceeds H - gapO at the vector
	// it enters, that is, while F - gapE could still beat h - gapOE at the
	// next position. Lane 0 takes -32768, which never passes the test, so
	// the loop ends after at most 16 carries.
carry:
	VPERM2I128 $0x08, Y1, Y1, Y10
	VPALIGNR   $14, Y10, Y1, Y1
	VPADDSW    Y8, Y1, Y1
	XORQ       DI, DI

lazy:
	VMOVDQU   (R11)(DI*1), Y0
	VPSUBSW   Y7, Y0, Y10
	VPCMPGTW  Y10, Y1, Y10
	VPMOVMSKB Y10, AX
	TESTL     AX, AX
	JZ        next
	VPMAXSW   Y1, Y0, Y0
	VMOVDQU   Y0, (R11)(DI*1)
	VPMAXSW   Y0, Y3, Y3
	VPSUBSW   Y5, Y0, Y0
	VPMAXSW   (R13)(DI*1), Y0, Y0
	VMOVDQU   Y0, (R13)(DI*1)
	VPSUBSW   Y6, Y1, Y1
	ADDQ      $32, DI
	CMPQ      DI, R10
	JLT       lazy
	JMP       carry

next:
	INCQ SI
	DECQ CX
	JNZ  column

done:
	VEXTRACTI128 $1, Y3, X10
	VPMAXSW      X10, X3, X3
	VPSHUFD      $0x4e, X3, X10
	VPMAXSW      X10, X3, X3
	VPSHUFD      $0xb1, X3, X10
	VPMAXSW      X10, X3, X3
	VPSHUFLW     $0xb1, X3, X10
	VPMAXSW      X10, X3, X3
	VMOVD        X3, AX
	MOVWQSX      AX, AX
	MOVQ         AX, ret+104(FP)
	VZEROUPPER
	RET
