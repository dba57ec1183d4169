#include "textflag.h"

// montMulADX is the 4-limb CIOS Montgomery multiplication in its
// "no-carry" form (valid because q[3] < 2^63 - 1, which NewModulus
// enforces): t never needs a fifth word between steps.
//
// Register use:
//   R8..R11   x[0..3]
//   DI        &y;  DX holds y[i] for the multiply, then m for the reduction
//   SI        &q
//   R12..R15, BX  t[0..3] plus the word above them; the five rotate, so
//             after step i the freed t[0] becomes the next step's top word
//   AX, CX    low and high halves of each MULXQ
//
// Every step clears CF and OF with XORQ, then adds low product halves on
// the ADOXQ (OF) chain and high halves on the ADCXQ (CF) chain, so the two
// carry chains never wait on each other. MULXQ, MOVQ and the loads leave
// the flags alone.

// MUL_FIRST sets (a, t0..t3) = x * DX, for step 0 where t is zero.
#define MUL_FIRST(t0, t1, t2, t3, a) \
	XORQ   AX, AX;       \
	MULXQ  R8, t0, t1;   \
	MULXQ  R9, AX, t2;   \
	ADOXQ  AX, t1;       \
	MULXQ  R10, AX, t3;  \
	ADOXQ  AX, t2;       \
	MULXQ  R11, AX, a;   \
	ADOXQ  AX, t3;       \
	MOVQ   $0, AX;       \
	ADOXQ  AX, a

// MUL_ADD sets (a, t0..t3) = (t0..t3) + x * DX.
#define MUL_ADD(t0, t1, t2, t3, a) \
	XORQ   AX, AX;       \
	MULXQ  R8, AX, CX;   \
	ADOXQ  AX, t0;       \
	ADCXQ  CX, t1;       \
	MULXQ  R9, AX, CX;   \
	ADOXQ  AX, t1;       \
	ADCXQ  CX, t2;       \
	MULXQ  R10, AX, CX;  \
	ADOXQ  AX, t2;       \
	ADCXQ  CX, t3;       \
	MULXQ  R11, AX, a;   \
	ADOXQ  AX, t3;       \
	MOVQ   $0, AX;       \
	ADCXQ  AX, a;        \
	ADOXQ  AX, a

// REDUCE adds m*q to (a, t0..t3), with m = t0 * inv making the low word
// zero, and leaves the quotient by 2^64 in (t1, t2, t3, a); t0 is free
// afterwards.
#define REDUCE(t0, t1, t2, t3, a) \
	MOVQ   inv+32(FP), DX; \
	IMULQ  t0, DX;       \
	XORQ   AX, AX;       \
	MULXQ  0(SI), AX, CX;  \
	ADOXQ  AX, t0;       \
	ADCXQ  CX, t1;       \
	MULXQ  8(SI), AX, CX;  \
	ADOXQ  AX, t1;       \
	ADCXQ  CX, t2;       \
	MULXQ  16(SI), AX, CX; \
	ADOXQ  AX, t2;       \
	ADCXQ  CX, t3;       \
	MULXQ  24(SI), AX, CX; \
	ADOXQ  AX, t3;       \
	MOVQ   $0, AX;       \
	ADCXQ  CX, a;        \
	ADOXQ  AX, a

// func montMulADX(z, x, y, q *Limbs, inv uint64)
TEXT ·montMulADX(SB), NOSPLIT, $0-40
	MOVQ x+8(FP), SI
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ y+16(FP), DI
	MOVQ q+24(FP), SI

	MOVQ 0(DI), DX
	MUL_FIRST(R12, R13, R14, R15, BX)
	REDUCE(R12, R13, R14, R15, BX)

	MOVQ 8(DI), DX
	MUL_ADD(R13, R14, R15, BX, R12)
	REDUCE(R13, R14, R15, BX, R12)

	MOVQ 16(DI), DX
	MUL_ADD(R14, R15, BX, R12, R13)
	REDUCE(R14, R15, BX, R12, R13)

	MOVQ 24(DI), DX
	MUL_ADD(R15, BX, R12, R13, R14)
	REDUCE(R15, BX, R12, R13, R14)

	// t = (BX, R12, R13, R14) < 2q. Subtract q into copies; the borrow
	// (CF) says t < q, so take the difference only when CF is clear.
	MOVQ    BX, R8
	SUBQ    0(SI), R8
	MOVQ    R12, R9
	SBBQ    8(SI), R9
	MOVQ    R13, R10
	SBBQ    16(SI), R10
	MOVQ    R14, R11
	SBBQ    24(SI), R11
	CMOVQCC R8, BX
	CMOVQCC R9, R12
	CMOVQCC R10, R13
	CMOVQCC R11, R14

	MOVQ z+0(FP), DI
	MOVQ BX, 0(DI)
	MOVQ R12, 8(DI)
	MOVQ R13, 16(DI)
	MOVQ R14, 24(DI)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
