#include "textflag.h"

// func decodeBlock(b []byte, pos int, dst []Edge, bound *[8]uint16, index *[1 << 12]uint32, shuffle *[blockLayouts][16]byte) (k, next int)
//
// Registers: SI b, AX pos, R8 the last pos a 16-byte load may start at;
// DI dst, CX edges decoded, R9 the last count a 4-edge store may start at;
// R10 index, R11 shuffle; X7 bound, X5 0x007f and X6 0x3f80 in every
// lane, X4 zero.
TEXT ·decodeBlock(SB), NOSPLIT, $0-96
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), R8
	MOVQ pos+24(FP), AX
	MOVQ dst_base+32(FP), DI
	MOVQ dst_len+40(FP), R9
	MOVQ bound+56(FP), DX
	MOVQ index+64(FP), R10
	MOVQ shuffle+72(FP), R11
	XORQ CX, CX
	SUBQ $16, R8
	JLT  done
	SUBQ $4, R9
	JLT  done
	MOVOU   (DX), X7
	PCMPEQW X5, X5
	PSRLW   $9, X5
	MOVO    X5, X6
	PSLLW   $7, X6
	PXOR    X4, X4

loop:
	// Unsigned, so a negative pos stops before any load.
	CMPQ AX, R8
	JHI  done
	CMPQ CX, R9
	JHI  done
	MOVOU    (SI)(AX*1), X0
	PMOVMSKB X0, BX
	ANDL     $0xfff, BX
	MOVBLZX  1(R10)(BX*4), R12 // edges in the block
	TESTL    R12, R12
	JZ       done
	MOVWLZX  2(R10)(BX*4), R13 // offset of the PSHUFB control
	MOVOU    (R11)(R13*1), X1
	PSHUFB   X1, X0

	// Each lane holds a varint's first byte, then its second or zero:
	// v = lane&0x7f | lane>>1&0x3f80.
	MOVO  X0, X2
	PAND  X5, X0
	PSRLW $1, X2
	PAND  X6, X2
	POR   X2, X0

	// Every lane must lie below its bound; unused lanes are zero.
	MOVO     X7, X3
	PCMPGTW  X0, X3
	PMOVMSKB X3, R13
	CMPL     R13, $0xffff
	JNE      done

	// Widen the eight 16-bit lanes to four Edge{Set, Elem int32}.
	MOVO      X0, X1
	PUNPCKLWL X4, X0
	PUNPCKHWL X4, X1
	MOVOU     X0, (DI)(CX*8)
	MOVOU     X1, 16(DI)(CX*8)
	MOVBLZX   (R10)(BX*4), BX // bytes the block's edges take
	ADDQ      BX, AX
	ADDQ      R12, CX
	JMP       loop

done:
	MOVQ CX, k+80(FP)
	MOVQ AX, next+88(FP)
	RET

// func encodeBlock(b []byte, at int, edges []Edge, shuffle *[256][16]byte, length *[256]uint8) (k, next int)
//
// Registers: DI b, AX at, R8 the last at a 16-byte store may start at;
// SI edges, CX edges encoded, R9 the last count a 4-edge load may start
// at; R10 shuffle, R11 length; X7 0xffffc000 in every dword, X6 0x007f
// (127) and X5 0x3f80 in every word, X4 0x0080 in every word, X3 zero.
TEXT ·encodeBlock(SB), NOSPLIT, $0-88
	MOVQ b_base+0(FP), DI
	MOVQ b_len+8(FP), R8
	MOVQ at+24(FP), AX
	MOVQ edges_base+32(FP), SI
	MOVQ edges_len+40(FP), R9
	MOVQ shuffle+56(FP), R10
	MOVQ length+64(FP), R11
	XORQ CX, CX
	SUBQ $16, R8
	JLT  encdone
	SUBQ $4, R9
	JLT  encdone
	PCMPEQL X7, X7
	PSLLL   $14, X7
	PCMPEQW X6, X6
	PSRLW   $9, X6
	MOVO    X6, X5
	PSLLW   $7, X5
	PCMPEQW X4, X4
	PSRLW   $15, X4
	PSLLW   $7, X4
	PXOR    X3, X3

encloop:
	// Unsigned, so a negative at stops before any store.
	CMPQ AX, R8
	JHI  encdone
	CMPQ CX, R9
	JHI  encdone
	MOVOU (SI)(CX*8), X0
	MOVOU 16(SI)(CX*8), X1

	// Every ID must lie in [0, 2^14): no bit of 0xffffc000 set, which
	// also rules out negative ones.
	MOVO     X0, X2
	POR      X1, X2
	PAND     X7, X2
	PCMPEQL  X3, X2
	PMOVMSKB X2, BX
	CMPL     BX, $0xffff
	JNE      encdone

	// Lanes s0 u0 s1 u1 s2 u2 s3 u3; c = v > 127, and each lane's
	// uvarint is v&0x7f | c<<7 | v>>7<<8, where v + v&0x3f80 gives the
	// first and third terms.
	PACKSSLW X1, X0
	MOVO     X0, X1
	PCMPGTW  X6, X1
	MOVO     X0, X2
	PAND     X5, X2
	PADDW    X2, X0
	MOVO     X1, X2
	PAND     X4, X2
	POR      X2, X0

	// The eight c flags index the PSHUFB control that keeps each lane's
	// low byte and, where c is set, its high byte.
	PACKSSWB X1, X1
	PMOVMSKB X1, BX
	MOVBLZX  BX, BX
	MOVQ     BX, DX
	SHLQ     $4, DX
	MOVOU    (R10)(DX*1), X2
	PSHUFB   X2, X0
	MOVOU    X0, (DI)(AX*1)
	MOVBLZX  (R11)(BX*1), BX // 8 + popcount(c)
	ADDQ     BX, AX
	ADDQ     $4, CX
	JMP      encloop

encdone:
	MOVQ CX, k+72(FP)
	MOVQ AX, next+80(FP)
	RET

// func cpuHasSSSE3() bool
TEXT ·cpuHasSSSE3(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $9, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
