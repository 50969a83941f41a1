#include "textflag.h"

// func hasSSSE3() bool
TEXT ·hasSSSE3(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $9, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func decodeSSSE3(ctrl *byte, groups int64, data *byte, dataLen int64, dst *[2]int32, st *State)
//
// Register plan:
//   SI  ctrl base          R9   group index (also ctrl offset)
//   DX  data cursor        R8   last data position with a full 16-byte window
//   DI  dst cursor         R14  data base (for Consumed)
//   R10 ShufTable base     R11  LenTable base
//   R15 st                 AX   control byte; R12/R13 scratch
//   X0  carry [u,v,u,v]    X7   OR-accumulator of all produced values
TEXT ·decodeSSSE3(SB), NOSPLIT, $0-48
	MOVQ ctrl+0(FP), SI
	MOVQ groups+8(FP), BX
	MOVQ data+16(FP), DX
	MOVQ dataLen+24(FP), R8
	MOVQ dst+32(FP), DI
	MOVQ st+40(FP), R15
	MOVQ DX, R14
	LEAQ -16(DX)(R8*1), R8
	LEAQ ·ShufTable(SB), R10
	LEAQ ·LenTable(SB), R11

	// Carry in: st.{U,V} are adjacent int32s; load as one qword and
	// duplicate into both halves so one PADDD applies (u,v) to both edges.
	MOVQ   0(R15), X0
	PSHUFL $0x44, X0, X0
	PXOR   X7, X7
	XORQ   R9, R9

loop:
	CMPQ R9, BX
	JGE  done
	CMPQ DX, R8
	JA   done

	// Expand the group's packed bytes to four uint32 lanes via the
	// control byte's shuffle mask (absent high bytes become zero).
	MOVBLZX (SI)(R9*1), AX
	MOVQ    AX, R12
	SHLQ    $4, R12
	MOVOU   (R10)(R12*1), X4
	MOVOU   (DX), X1
	PSHUFB  X4, X1

	// Zigzag decode all lanes: d = (z >> 1) ^ -(z & 1).
	MOVO  X1, X2
	PSLLL $31, X2
	PSRAL $31, X2
	PSRLL $1, X1
	PXOR  X2, X1

	// Lanes are (du0, dv0, du1, dv1): a two-lane shift-add prefix-sums
	// each channel, then the duplicated carry lands both edges at once.
	MOVQ   X1, X2
	PSHUFL $0x4E, X2, X2
	PADDD  X2, X1
	PADDD  X0, X1
	POR    X1, X7
	PSHUFL $0xEE, X1, X0

	// The lanes (u0, v0, u1, v1) are two [2]int32 edges: store them.
	MOVOU X1, (DI)
	ADDQ  $16, DI

	MOVBLZX (R11)(AX*1), R13
	ADDQ    R13, DX
	INCQ    R9
	JMP     loop

done:
	MOVQ X0, AX
	MOVL AX, 0(R15)  // State.U
	SHRQ $32, AX
	MOVL AX, 4(R15)  // State.V
	MOVL R9, 8(R15)  // State.Done

	// Normalize "any produced value had its sign bit set" to the same
	// 0 / 0x80000000 encoding the portable model produces.
	MOVMSKPS X7, AX
	MOVL     $0, CX
	MOVL     $0x80000000, R12
	TESTL    AX, AX
	CMOVLNE  R12, CX
	MOVL     CX, 12(R15) // State.Flags

	SUBQ R14, DX
	MOVQ DX, 16(R15) // State.Consumed
	RET
