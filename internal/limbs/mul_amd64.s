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

// MONT_MUL_LAZY sets (BX, R12, R13, R14) = R8..R11 * (DI) * 2^-256 mod q,
// with SI = &q, below 2q but not fully reduced: for operands below 2q the
// product stays below 2q because 4q < 2^256 (NewModulus's bound on q), so a
// value that only feeds further multiplications can skip REDUCE_Q. It
// clobbers R15, AX, CX and DX, and leaves R8..R11 holding x.
#define MONT_MUL_LAZY(inv) \
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
	REDUCE(R15, BX, R12, R13, R14, inv)

// MONT_MUL sets (BX, R12, R13, R14) = R8..R11 * (DI) * 2^-256 mod q, with
// SI = &q, fully reduced. It clobbers R8..R11, R15, AX, CX and DX.
#define MONT_MUL(inv) \
	MONT_MUL_LAZY(inv); \
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

// func butterflyRunADX(x, y, w *Limbs, n int, q *Limbs, inv uint64)
//
// For i < n, with a = x[i], b = y[i] and t = w[i]·b·2^-256 mod q: x[i] =
// a + t, y[i] = a − t mod q. n ≥ 1. The multiplication needs every general register, so the three
// cursors and the count live in the frame. The difference is formed as
// a + (q − t), which lies in [1, 2q), so that both results are a sum below
// 2q and one REDUCE_Q each.
TEXT ·butterflyRunADX(SB), NOSPLIT, $32-48
	MOVQ n+24(FP), AX
	MOVQ AX, cnt-32(SP)
	MOVQ x+0(FP), AX
	MOVQ AX, xp-8(SP)
	MOVQ y+8(FP), AX
	MOVQ AX, yp-16(SP)
	MOVQ w+16(FP), AX
	MOVQ AX, wp-24(SP)
	MOVQ q+32(FP), SI

loop:
	// t = w * b into (BX, R12, R13, R14).
	MOVQ wp-24(SP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ yp-16(SP), DI
	MONT_MUL(inv+40(FP))

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

	ADDQ $32, xp-8(SP)
	ADDQ $32, yp-16(SP)
	ADDQ $32, wp-24(SP)
	DECQ cnt-32(SP)
	JNZ  loop
	RET

// SUB_Q_MEM sets (BX, R12, R13, R14) = (BX, R12, R13, R14) − (b) mod q for
// operands below q, as v + (q − b), which lies in [1, 2q), and one
// REDUCE_Q. It clobbers R8..R11, R15, AX, CX and DX.
#define SUB_Q_MEM(b) \
	MOVQ 0(SI), AX;   \
	MOVQ 8(SI), CX;   \
	MOVQ 16(SI), DX;  \
	MOVQ 24(SI), R15; \
	SUBQ 0(b), AX;    \
	SBBQ 8(b), CX;    \
	SBBQ 16(b), DX;   \
	SBBQ 24(b), R15;  \
	ADDQ AX, BX;      \
	ADCQ CX, R12;     \
	ADCQ DX, R13;     \
	ADCQ R15, R14;    \
	REDUCE_Q(BX, R12, R13, R14)

// LOAD_X loads the element at (p) into R8..R11, MONT_MUL's x operand.
#define LOAD_X(p) \
	MOVQ 0(p), R8;  \
	MOVQ 8(p), R9;  \
	MOVQ 16(p), R10; \
	MOVQ 24(p), R11

// STORE4 stores v0..v3 at (p).
#define STORE4(v0, v1, v2, v3, p) \
	MOVQ v0, 0(p);  \
	MOVQ v1, 8(p);  \
	MOVQ v2, 16(p); \
	MOVQ v3, 24(p)

// func addRunFirstADX(ops *AddOp, n int, den, num, prefix, acc, q *Limbs, inv uint64)
//
// AddRun's first pass over n ≥ 1 ops (an AddOp is P at 0, Q at 8 and Neg
// at 16, 24 bytes). For op i it writes the slope's numerator num[i] =
// y_q + (Neg ? y_p : q − y_p) and denominator den[i] = x_m + (q − x_s),
// with (m, s) = (Q, P), or (P, Q) when Neg — both choices by CMOV, since
// Neg is a coin flip. A zero denominator means x_p = x_q: with a zero
// numerator the op is a doubling and gets 2y_p over 3x_p², otherwise it
// is a cancellation and keeps den[i] = 0, as is a doubling with y_p = 0. prefix[i] takes *acc, and *acc
// is multiplied by every nonzero den[i]. The cursors and the count live
// in the frame.
TEXT ·addRunFirstADX(SB), NOSPLIT, $40-64
	MOVQ n+8(FP), AX
	MOVQ AX, cnt-8(SP)
	MOVQ ops+0(FP), AX
	MOVQ AX, op-16(SP)
	MOVQ den+16(FP), AX
	MOVQ AX, dp-24(SP)
	MOVQ num+24(FP), AX
	MOVQ AX, up-32(SP)
	MOVQ prefix+32(FP), AX
	MOVQ AX, pp-40(SP)
	MOVQ q+48(FP), SI

first_loop:
	MOVQ    op-16(SP), DI
	MOVQ    0(DI), BX
	MOVQ    8(DI), R12
	MOVBQZX 16(DI), R13

	// num = y_q + (Neg ? y_p : q − y_p).
	MOVQ    0(SI), AX
	MOVQ    8(SI), CX
	MOVQ    16(SI), DX
	MOVQ    24(SI), R15
	SUBQ    32(BX), AX
	SBBQ    40(BX), CX
	SBBQ    48(BX), DX
	SBBQ    56(BX), R15
	TESTQ   R13, R13
	CMOVQNE 32(BX), AX
	CMOVQNE 40(BX), CX
	CMOVQNE 48(BX), DX
	CMOVQNE 56(BX), R15
	ADDQ    32(R12), AX
	ADCQ    40(R12), CX
	ADCQ    48(R12), DX
	ADCQ    56(R12), R15
	REDUCE_Q(AX, CX, DX, R15)
	MOVQ    up-32(SP), DI
	STORE4(AX, CX, DX, R15, DI)

	// den = x_m − x_s: minuend pointer in R14, subtrahend in DI.
	MOVQ    R12, R14
	MOVQ    BX, DI
	TESTQ   R13, R13
	CMOVQNE BX, R14
	CMOVQNE R12, DI
	MOVQ    0(SI), AX
	MOVQ    8(SI), CX
	MOVQ    16(SI), DX
	MOVQ    24(SI), R15
	SUBQ    0(DI), AX
	SBBQ    8(DI), CX
	SBBQ    16(DI), DX
	SBBQ    24(DI), R15
	ADDQ    0(R14), AX
	ADCQ    8(R14), CX
	ADCQ    16(R14), DX
	ADCQ    24(R14), R15
	REDUCE_Q(AX, CX, DX, R15)
	MOVQ    dp-24(SP), DI
	STORE4(AX, CX, DX, R15, DI)
	ORQ     CX, AX
	ORQ     DX, AX
	ORQ     R15, AX
	JZ      first_xeq

first_mul:
	// prefix = acc, acc = acc · den.
	MOVQ acc+40(FP), DI
	LOAD_X(DI)
	MOVQ pp-40(SP), DI
	STORE4(R8, R9, R10, R11, DI)
	MOVQ dp-24(SP), DI
	MONT_MUL_LAZY(inv+56(FP))
	MOVQ acc+40(FP), DI
	STORE4(BX, R12, R13, R14, DI)

first_next:
	ADDQ $24, op-16(SP)
	ADDQ $32, dp-24(SP)
	ADDQ $32, up-32(SP)
	ADDQ $32, pp-40(SP)
	DECQ cnt-8(SP)
	JNZ  first_loop
	RET

first_xeq:
	// x_p = x_q. A nonzero numerator is a cancellation: prefix = acc and
	// no product, den stays 0.
	MOVQ up-32(SP), DI
	MOVQ 0(DI), AX
	ORQ  8(DI), AX
	ORQ  16(DI), AX
	ORQ  24(DI), AX
	JZ   first_double

first_cancel:
	MOVQ acc+40(FP), DI
	LOAD_X(DI)
	MOVQ pp-40(SP), DI
	STORE4(R8, R9, R10, R11, DI)
	JMP  first_next

first_double:
	// P = ±Q: den = 2y_p, num = 3x_p² (BX still holds P).
	MOVQ 32(BX), AX
	MOVQ 40(BX), CX
	MOVQ 48(BX), DX
	MOVQ 56(BX), R15
	ADDQ AX, AX
	ADCQ CX, CX
	ADCQ DX, DX
	ADCQ R15, R15
	REDUCE_Q(AX, CX, DX, R15)
	MOVQ dp-24(SP), DI
	STORE4(AX, CX, DX, R15, DI)
	ORQ  CX, AX
	ORQ  DX, AX
	ORQ  R15, AX
	JZ   first_cancel // y_p = 0: P + P is the point at infinity
	LOAD_X(BX)
	MOVQ BX, DI
	MONT_MUL(inv+56(FP))
	MOVQ BX, AX
	MOVQ R12, CX
	MOVQ R13, DX
	MOVQ R14, R15
	ADDQ AX, AX
	ADCQ CX, CX
	ADCQ DX, DX
	ADCQ R15, R15
	REDUCE_Q(AX, CX, DX, R15)
	ADDQ BX, AX
	ADCQ R12, CX
	ADCQ R13, DX
	ADCQ R14, R15
	REDUCE_Q(AX, CX, DX, R15)
	MOVQ up-32(SP), DI
	STORE4(AX, CX, DX, R15, DI)
	JMP  first_mul

// func addRunSecondADX(ops *AddOp, n int, den, num, prefix, inv, q *Limbs, minv uint64)
//
// AddRun's second pass, over the n ≥ 1 ops from the last: a zero den[i]
// sets P = (0, 0); otherwise t = inv·prefix[i] is den[i]'s inverse,
// inv = inv·den[i], λ = num[i]·t, x₃ = λ² − x_p − x_q and
// y₃ = λ(x_p − x₃) − y_p overwrite P. The cursors, the count, t and λ live
// in the frame.
TEXT ·addRunSecondADX(SB), NOSPLIT, $104-64
	MOVQ  n+8(FP), AX
	MOVQ  AX, cnt-8(SP)
	DECQ  AX
	MOVQ  AX, CX
	IMULQ $24, CX
	ADDQ  ops+0(FP), CX
	MOVQ  CX, op-16(SP)
	SHLQ  $5, AX
	MOVQ  den+16(FP), CX
	ADDQ  AX, CX
	MOVQ  CX, dp-24(SP)
	MOVQ  num+24(FP), CX
	ADDQ  AX, CX
	MOVQ  CX, up-32(SP)
	MOVQ  prefix+32(FP), CX
	ADDQ  AX, CX
	MOVQ  CX, pp-40(SP)
	MOVQ  q+48(FP), SI

second_loop:
	MOVQ dp-24(SP), DI
	MOVQ 0(DI), AX
	ORQ  8(DI), AX
	ORQ  16(DI), AX
	ORQ  24(DI), AX
	JNZ  second_add
	MOVQ op-16(SP), DI
	MOVQ 0(DI), DI
	XORQ AX, AX
	STORE4(AX, AX, AX, AX, DI)
	ADDQ $32, DI
	STORE4(AX, AX, AX, AX, DI)
	JMP  second_next

second_add:
	// t = inv · prefix.
	MOVQ inv+40(FP), DI
	LOAD_X(DI)
	MOVQ pp-40(SP), DI
	MONT_MUL_LAZY(minv+56(FP))
	MOVQ BX, t0-72(SP)
	MOVQ R12, t1-64(SP)
	MOVQ R13, t2-56(SP)
	MOVQ R14, t3-48(SP)

	// inv = inv · den.
	MOVQ inv+40(FP), DI
	LOAD_X(DI)
	MOVQ dp-24(SP), DI
	MONT_MUL_LAZY(minv+56(FP))
	MOVQ inv+40(FP), DI
	STORE4(BX, R12, R13, R14, DI)

	// λ = num · t.
	MOVQ up-32(SP), DI
	LOAD_X(DI)
	LEAQ t0-72(SP), DI
	MONT_MUL_LAZY(minv+56(FP))
	MOVQ BX, l0-104(SP)
	MOVQ R12, l1-96(SP)
	MOVQ R13, l2-88(SP)
	MOVQ R14, l3-80(SP)

	// x₃ = λ² − x_p − x_q.
	MOVQ BX, R8
	MOVQ R12, R9
	MOVQ R13, R10
	MOVQ R14, R11
	LEAQ l0-104(SP), DI
	MONT_MUL(minv+56(FP))
	MOVQ op-16(SP), DI
	MOVQ 0(DI), DI
	SUB_Q_MEM(DI)
	MOVQ op-16(SP), DI
	MOVQ 8(DI), DI
	SUB_Q_MEM(DI)

	// w = x_p − x₃ = x_p + (q − x₃); then x_p = x₃.
	MOVQ op-16(SP), DI
	MOVQ 0(DI), DI
	MOVQ 0(SI), AX
	MOVQ 8(SI), CX
	MOVQ 16(SI), DX
	MOVQ 24(SI), R15
	SUBQ BX, AX
	SBBQ R12, CX
	SBBQ R13, DX
	SBBQ R14, R15
	ADDQ 0(DI), AX
	ADCQ 8(DI), CX
	ADCQ 16(DI), DX
	ADCQ 24(DI), R15
	STORE4(BX, R12, R13, R14, DI)
	REDUCE_Q(AX, CX, DX, R15)

	// y₃ = λ·w − y_p.
	MOVQ AX, R8
	MOVQ CX, R9
	MOVQ DX, R10
	MOVQ R15, R11
	LEAQ l0-104(SP), DI
	MONT_MUL(minv+56(FP))
	MOVQ op-16(SP), DI
	MOVQ 0(DI), DI
	ADDQ $32, DI
	SUB_Q_MEM(DI)
	STORE4(BX, R12, R13, R14, DI)

second_next:
	SUBQ $24, op-16(SP)
	SUBQ $32, dp-24(SP)
	SUBQ $32, up-32(SP)
	SUBQ $32, pp-40(SP)
	DECQ cnt-8(SP)
	JNZ  second_loop
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

