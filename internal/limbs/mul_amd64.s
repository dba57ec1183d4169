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
// afterwards. inv names the argument slot holding -q^{-1} mod 2^64.
#define REDUCE(t0, t1, t2, t3, a, inv) \
	MOVQ   inv, DX;      \
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

// MONT_MUL sets (BX, R12, R13, R14) = R8..R11 * (DI) * 2^-256 mod q, with
// SI = &q, fully reduced. It clobbers R8..R11, R15, AX, CX and DX.
#define MONT_MUL(inv) \
	MOVQ 0(DI), DX;                      \
	MUL_FIRST(R12, R13, R14, R15, BX);   \
	REDUCE(R12, R13, R14, R15, BX, inv); \
	MOVQ 8(DI), DX;                      \
	MUL_ADD(R13, R14, R15, BX, R12);     \
	REDUCE(R13, R14, R15, BX, R12, inv); \
	MOVQ 16(DI), DX;                     \
	MUL_ADD(R14, R15, BX, R12, R13);     \
	REDUCE(R14, R15, BX, R12, R13, inv); \
	MOVQ 24(DI), DX;                     \
	MUL_ADD(R15, BX, R12, R13, R14);     \
	REDUCE(R15, BX, R12, R13, R14, inv); \
	REDUCE_Q(BX, R12, R13, R14)

// REDUCE_Q takes v0..v3 < 2q down below q: it subtracts q into copies in
// R8..R11, and the borrow (CF) says v < q, so it takes the difference only
// when CF is clear.
#define REDUCE_Q(v0, v1, v2, v3) \
	MOVQ    v0, R8;      \
	SUBQ    0(SI), R8;   \
	MOVQ    v1, R9;      \
	SBBQ    8(SI), R9;   \
	MOVQ    v2, R10;     \
	SBBQ    16(SI), R10; \
	MOVQ    v3, R11;     \
	SBBQ    24(SI), R11; \
	CMOVQCC R8, v0;      \
	CMOVQCC R9, v1;      \
	CMOVQCC R10, v2;     \
	CMOVQCC R11, v3

// func montMulADX(z, x, y, q *Limbs, inv uint64)
TEXT ·montMulADX(SB), NOSPLIT, $0-40
	MOVQ x+8(FP), SI
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ y+16(FP), DI
	MOVQ q+24(FP), SI
	MONT_MUL(inv+32(FP))

	MOVQ z+0(FP), DI
	MOVQ BX, 0(DI)
	MOVQ R12, 8(DI)
	MOVQ R13, 16(DI)
	MOVQ R14, 24(DI)
	RET

// func butterflyRunADX(x, y, w *Limbs, n, xs, ws int, q *Limbs, inv uint64)
//
// For i < n, with a = x[i·xs], b = y[i·xs] and t = w[i·ws]·b·2^-256 mod q:
// x[i·xs] = a + t, y[i·xs] = a − t mod q. n ≥ 1, strides in elements of 32
// bytes. The multiplication needs every general register, so the three
// cursors and the count live in the frame. The difference is formed as
// a + (q − t), which lies in [1, 2q), so that both results are a sum below
// 2q and one REDUCE_Q each.
TEXT ·butterflyRunADX(SB), NOSPLIT, $32-64
	MOVQ n+24(FP), AX
	MOVQ AX, cnt-32(SP)
	MOVQ x+0(FP), AX
	MOVQ AX, xp-8(SP)
	MOVQ y+8(FP), AX
	MOVQ AX, yp-16(SP)
	MOVQ w+16(FP), AX
	MOVQ AX, wp-24(SP)
	MOVQ q+48(FP), SI

loop:
	// t = w * b into (BX, R12, R13, R14).
	MOVQ wp-24(SP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ yp-16(SP), DI
	MONT_MUL(inv+56(FP))

	// y = a + (q − t).
	MOVQ xp-8(SP), R15
	MOVQ 0(SI), AX
	MOVQ 8(SI), CX
	MOVQ 16(SI), DX
	MOVQ 24(SI), DI
	SUBQ BX, AX
	SBBQ R12, CX
	SBBQ R13, DX
	SBBQ R14, DI
	ADDQ 0(R15), AX
	ADCQ 8(R15), CX
	ADCQ 16(R15), DX
	ADCQ 24(R15), DI
	REDUCE_Q(AX, CX, DX, DI)
	MOVQ yp-16(SP), R8
	MOVQ AX, 0(R8)
	MOVQ CX, 8(R8)
	MOVQ DX, 16(R8)
	MOVQ DI, 24(R8)

	// x = a + t.
	ADDQ 0(R15), BX
	ADCQ 8(R15), R12
	ADCQ 16(R15), R13
	ADCQ 24(R15), R14
	REDUCE_Q(BX, R12, R13, R14)
	MOVQ BX, 0(R15)
	MOVQ R12, 8(R15)
	MOVQ R13, 16(R15)
	MOVQ R14, 24(R15)

	MOVQ xs+32(FP), AX
	SHLQ $5, AX
	ADDQ AX, xp-8(SP)
	ADDQ AX, yp-16(SP)
	MOVQ ws+40(FP), AX
	SHLQ $5, AX
	ADDQ AX, wp-24(SP)
	DECQ cnt-32(SP)
	JNZ  loop
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
