#include "textflag.h"

// The AVX-512 IFMA block kernels: eight rows per instruction. A vector of
// eight values is five ZMM registers, limb j of every lane in one, each limb
// 52 bits, in Montgomery form with R = 2^260 (block.go's Block layout: a
// vector's limbs are 64 bytes apart, the second vector starts 320 bytes
// in). VPMADD52LUQ and VPMADD52HUQ add the low and high 52 bits of the
// 104-bit lane products of two 52-bit limbs into 64-bit accumulators, so
// carries can wait: they are propagated once per product, not per limb.
//
// Register use, shared by every kernel:
//   A0..A4    the first operand's limbs (the gathered words on a load)
//   Z5..Z10   the product accumulator t, six rotating words
//   ZB        the second operand's limb of the current step
//   ZM        the reduction factor m of the current step
//   ZK        −M⁻¹ mod 2^52;  ZMASK 2^52 − 1;  Q0..Q4 the modulus' limbs
//   D0..D4    the result limbs;  ZS scratch;  ZIDX the gather offsets
// Every kernel leaves with VZEROUPPER.

#define A0 Z0
#define A1 Z1
#define A2 Z2
#define A3 Z3
#define A4 Z4
#define ZB Z11
#define ZM Z12
#define ZK Z13
#define ZMASK Z14
#define Q0 Z15
#define Q1 Z16
#define Q2 Z17
#define Q3 Z18
#define Q4 Z19
#define D0 Z20
#define D1 Z21
#define D2 Z22
#define D3 Z23
#define D4 Z24
#define ZS Z25
#define ZIDX Z26

// SETUP broadcasts the modulus, −M⁻¹ mod 2^52 and the limb mask from the
// ifmaConst at R9 (block.go). It clobbers AX.
#define SETUP \
	VPBROADCASTQ 0(R9), Q0;    \
	VPBROADCASTQ 8(R9), Q1;    \
	VPBROADCASTQ 16(R9), Q2;   \
	VPBROADCASTQ 24(R9), Q3;   \
	VPBROADCASTQ 32(R9), Q4;   \
	VPBROADCASTQ 40(R9), ZK;   \
	MOVQ $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, ZMASK

// STEP is one step of the operand-scanning Montgomery product: it adds
// A·ZB into t0..t5, then m·M with m = t0·(−M⁻¹) mod 2^52, which makes the
// low 52 bits of t0 zero, carries t0's high bits into t1 and clears t0,
// which becomes the next step's top word. VPMADD52 reads only the low 52
// bits of its multiplicands, so t0 needs no masking before m is formed.
#define STEP(t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ ZB, A0, t0;  \
	VPMADD52HUQ ZB, A0, t1;  \
	VPMADD52LUQ ZB, A1, t1;  \
	VPMADD52HUQ ZB, A1, t2;  \
	VPMADD52LUQ ZB, A2, t2;  \
	VPMADD52HUQ ZB, A2, t3;  \
	VPMADD52LUQ ZB, A3, t3;  \
	VPMADD52HUQ ZB, A3, t4;  \
	VPMADD52LUQ ZB, A4, t4;  \
	VPMADD52HUQ ZB, A4, t5;  \
	VPXORQ      ZM, ZM, ZM;  \
	VPMADD52LUQ ZK, t0, ZM;  \
	VPMADD52LUQ Q0, ZM, t0;  \
	VPMADD52HUQ Q0, ZM, t1;  \
	VPMADD52LUQ Q1, ZM, t1;  \
	VPMADD52HUQ Q1, ZM, t2;  \
	VPMADD52LUQ Q2, ZM, t2;  \
	VPMADD52HUQ Q2, ZM, t3;  \
	VPMADD52LUQ Q3, ZM, t3;  \
	VPMADD52HUQ Q3, ZM, t4;  \
	VPMADD52LUQ Q4, ZM, t4;  \
	VPMADD52HUQ Q4, ZM, t5;  \
	VPSRLQ      $52, t0, t0; \
	VPADDQ      t0, t1, t1;  \
	VPXORQ      t0, t0, t0

// NORM propagates the carries of t0..t4 up to t4, leaving t0..t3 in 52
// bits; SHR is VPSRLQ for non-negative limbs, VPSRAQ where a limb may be
// negative (a borrow).
#define NORM(SHR, t0, t1, t2, t3, t4) \
	SHR    $52, t0, ZS;     \
	VPANDQ ZMASK, t0, t0;   \
	VPADDQ ZS, t1, t1;      \
	SHR    $52, t1, ZS;     \
	VPANDQ ZMASK, t1, t1;   \
	VPADDQ ZS, t2, t2;      \
	SHR    $52, t2, ZS;     \
	VPANDQ ZMASK, t2, t2;   \
	VPADDQ ZS, t3, t3;      \
	SHR    $52, t3, ZS;     \
	VPANDQ ZMASK, t3, t3;   \
	VPADDQ ZS, t4, t4

// CSUB sets D0..D4 to t0..t4 reduced below M, for a normalized t below 2M:
// it forms t − M with the borrow carried by arithmetic shifts, and where
// that is negative (the sign of its top limb, VPMOVQ2M) keeps t instead.
#define CSUB(t0, t1, t2, t3, t4) \
	VPSUBQ    Q0, t0, D0;    \
	VPSRAQ    $52, D0, ZS;   \
	VPANDQ    ZMASK, D0, D0; \
	VPSUBQ    Q1, t1, D1;    \
	VPADDQ    ZS, D1, D1;    \
	VPSRAQ    $52, D1, ZS;   \
	VPANDQ    ZMASK, D1, D1; \
	VPSUBQ    Q2, t2, D2;    \
	VPADDQ    ZS, D2, D2;    \
	VPSRAQ    $52, D2, ZS;   \
	VPANDQ    ZMASK, D2, D2; \
	VPSUBQ    Q3, t3, D3;    \
	VPADDQ    ZS, D3, D3;    \
	VPSRAQ    $52, D3, ZS;   \
	VPANDQ    ZMASK, D3, D3; \
	VPSUBQ    Q4, t4, D4;    \
	VPADDQ    ZS, D4, D4;    \
	VPMOVQ2M  D4, K1;        \
	VMOVDQU64 t0, K1, D0;    \
	VMOVDQU64 t1, K1, D1;    \
	VMOVDQU64 t2, K1, D2;    \
	VMOVDQU64 t3, K1, D3;    \
	VMOVDQU64 t4, K1, D4

// MONT sets D0..D4 to A·B·2^-260 mod M, fully reduced, for A and B below
// M; LD b_i, ZB loads limb i of B (VMOVDQU64 for a vector, VPBROADCASTQ for
// one value in every lane). The result is below 2M before CSUB because
// M < 2^260.
#define MONT(LD, b0, b1, b2, b3, b4) \
	MONT_LAZY(LD, b0, b1, b2, b3, b4); \
	CSUB(Z10, Z5, Z6, Z7, Z8)

// MONT_LAZY is MONT without the final CSUB: it leaves A·B·2^-260 + kM, for
// k ≤ 1 whenever A·B < M·2^260, in Z10, Z5, Z6, Z7 and Z8, normalized.
#define MONT_LAZY(LD, b0, b1, b2, b3, b4) \
	VPXORQ Z5, Z5, Z5;                  \
	VPXORQ Z6, Z6, Z6;                  \
	VPXORQ Z7, Z7, Z7;                  \
	VPXORQ Z8, Z8, Z8;                  \
	VPXORQ Z9, Z9, Z9;                  \
	VPXORQ Z10, Z10, Z10;               \
	LD     b0, ZB;                      \
	STEP(Z5, Z6, Z7, Z8, Z9, Z10);      \
	LD     b1, ZB;                      \
	STEP(Z6, Z7, Z8, Z9, Z10, Z5);      \
	LD     b2, ZB;                      \
	STEP(Z7, Z8, Z9, Z10, Z5, Z6);      \
	LD     b3, ZB;                      \
	STEP(Z8, Z9, Z10, Z5, Z6, Z7);      \
	LD     b4, ZB;                      \
	STEP(Z9, Z10, Z5, Z6, Z7, Z8);      \
	NORM(VPSRLQ, Z10, Z5, Z6, Z7, Z8)

// LOAD_A loads the five limbs of the vector at p into A0..A4.
#define LOAD_A(p) \
	VMOVDQU64 0(p), A0;   \
	VMOVDQU64 64(p), A1;  \
	VMOVDQU64 128(p), A2; \
	VMOVDQU64 192(p), A3; \
	VMOVDQU64 256(p), A4

// STORE_D stores D0..D4 as the vector at p.
#define STORE_D(p) \
	VMOVDQU64 D0, 0(p);   \
	VMOVDQU64 D1, 64(p);  \
	VMOVDQU64 D2, 128(p); \
	VMOVDQU64 D3, 192(p); \
	VMOVDQU64 D4, 256(p)

// ROW_MASK sets K2 to the lanes of the next vector's rows: min(BX, 8) of
// them. It clobbers AX and CX.
#define ROW_MASK \
	MOVQ    $8, CX;   \
	CMPQ    BX, CX;   \
	CMOVQLT BX, CX;   \
	MOVQ    $1, AX;   \
	SHLQ    CX, AX;   \
	DECQ    AX;       \
	KMOVW   AX, K2

// gatherIdx holds the lanes' qword offsets in eight consecutive 32-byte
// rows.
DATA gatherIdx<>+0(SB)/8, $0
DATA gatherIdx<>+8(SB)/8, $4
DATA gatherIdx<>+16(SB)/8, $8
DATA gatherIdx<>+24(SB)/8, $12
DATA gatherIdx<>+32(SB)/8, $16
DATA gatherIdx<>+40(SB)/8, $20
DATA gatherIdx<>+48(SB)/8, $24
DATA gatherIdx<>+56(SB)/8, $28
GLOBL gatherIdx<>(SB), RODATA|NOPTR, $64

// func blockLoadIFMA(z *Block, src *Limbs, n int, c *ifmaConst)
//
// Per vector: gather each 64-bit limb of up to eight rows (masked, so no
// row past n is read), cut the four words into five 52-bit limbs, and
// multiply by 2^264 mod M, which takes R = 2^256 to 2^260.
TEXT ·blockLoadIFMA(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), R8
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ c+24(FP), R9
	SETUP
	VMOVDQU64 gatherIdx<>(SB), ZIDX

loadLoop:
	// The same rows of the next block, which a caller walking a column
	// loads next, into L2: a load is otherwise a wait on memory.
	PREFETCHT1 512(SI)
	PREFETCHT1 576(SI)
	PREFETCHT1 640(SI)
	PREFETCHT1 704(SI)
	ROW_MASK
	VPXORQ     D0, D0, D0
	KMOVW      K2, K1
	VPGATHERQQ 0(SI)(ZIDX*8), K1, D0
	VPXORQ     D1, D1, D1
	KMOVW      K2, K1
	VPGATHERQQ 8(SI)(ZIDX*8), K1, D1
	VPXORQ     D2, D2, D2
	KMOVW      K2, K1
	VPGATHERQQ 16(SI)(ZIDX*8), K1, D2
	VPXORQ     D3, D3, D3
	KMOVW      K2, K1
	VPGATHERQQ 24(SI)(ZIDX*8), K1, D3

	VPANDQ ZMASK, D0, A0
	VPSRLQ $52, D0, A1
	VPSLLQ $12, D1, ZS
	VPORQ  ZS, A1, A1
	VPANDQ ZMASK, A1, A1
	VPSRLQ $40, D1, A2
	VPSLLQ $24, D2, ZS
	VPORQ  ZS, A2, A2
	VPANDQ ZMASK, A2, A2
	VPSRLQ $28, D2, A3
	VPSLLQ $36, D3, ZS
	VPORQ  ZS, A3, A3
	VPANDQ ZMASK, A3, A3
	VPSRLQ $16, D3, A4

	MONT(VPBROADCASTQ, 48(R9), 56(R9), 64(R9), 72(R9), 80(R9))
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $256, SI
	SUBQ $8, BX
	JGT  loadLoop
	VZEROUPPER
	RET

// func blockStoreIFMA(dst *Limbs, x *Block, n int, c *ifmaConst)
//
// Per vector: multiply by 2^256 mod M, which takes R = 2^260 back to
// 2^256, join the five limbs into four words and scatter them (masked, so
// no row past n is written).
TEXT ·blockStoreIFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ c+24(FP), R9
	SETUP
	VMOVDQU64 gatherIdx<>(SB), ZIDX

storeLoop:
	LOAD_A(SI)
	MONT(VPBROADCASTQ, 88(R9), 96(R9), 104(R9), 112(R9), 120(R9))

	VPSLLQ $52, D1, ZS
	VPORQ  ZS, D0, A0
	VPSRLQ $12, D1, A1
	VPSLLQ $40, D2, ZS
	VPORQ  ZS, A1, A1
	VPSRLQ $24, D2, A2
	VPSLLQ $28, D3, ZS
	VPORQ  ZS, A2, A2
	VPSRLQ $36, D3, A3
	VPSLLQ $16, D4, ZS
	VPORQ  ZS, A3, A3

	ROW_MASK
	KMOVW       K2, K1
	VPSCATTERQQ A0, K1, 0(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A1, K1, 8(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A2, K1, 16(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A3, K1, 24(DI)(ZIDX*8)
	ADDQ        $320, SI
	ADDQ        $256, DI
	SUBQ        $8, BX
	JGT         storeLoop
	VZEROUPPER
	RET

// func blockMulIFMA(z, x, y *Block, nv int, c *ifmaConst)
TEXT ·blockMulIFMA(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ nv+24(FP), BX
	MOVQ c+32(FP), R9
	SETUP

mulLoop:
	LOAD_A(SI)
	MONT(VMOVDQU64, 0(DI), 64(DI), 128(DI), 192(DI), 256(DI))
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $320, SI
	ADDQ $320, DI
	DECQ BX
	JNZ  mulLoop
	VZEROUPPER
	RET

// func blockMulScalarIFMA(z, x *Block, s *BlockScalar, nv int, c *ifmaConst)
TEXT ·blockMulScalarIFMA(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ s+16(FP), DI
	MOVQ nv+24(FP), BX
	MOVQ c+32(FP), R9
	SETUP

mulScalarLoop:
	LOAD_A(SI)
	MONT(VPBROADCASTQ, 0(DI), 8(DI), 16(DI), 24(DI), 32(DI))
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $320, SI
	DECQ BX
	JNZ  mulScalarLoop
	VZEROUPPER
	RET

// func blockAddIFMA(z, x, y *Block, nv int, c *ifmaConst)
//
// x + y is below 2M: one carry pass and CSUB.
TEXT ·blockAddIFMA(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ nv+24(FP), BX
	MOVQ c+32(FP), R9
	SETUP

addLoop:
	LOAD_A(SI)
	VPADDQ 0(DI), A0, A0
	VPADDQ 64(DI), A1, A1
	VPADDQ 128(DI), A2, A2
	VPADDQ 192(DI), A3, A3
	VPADDQ 256(DI), A4, A4
	NORM(VPSRLQ, A0, A1, A2, A3, A4)
	CSUB(A0, A1, A2, A3, A4)
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $320, SI
	ADDQ $320, DI
	DECQ BX
	JNZ  addLoop
	VZEROUPPER
	RET

// func blockSubIFMA(z, x, y *Block, nv int, c *ifmaConst)
//
// x + (M − y) lies in (0, 2M); its limbs may be negative until the carry
// pass, which therefore shifts arithmetically.
TEXT ·blockSubIFMA(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ nv+24(FP), BX
	MOVQ c+32(FP), R9
	SETUP

subLoop:
	LOAD_A(SI)
	VPADDQ Q0, A0, A0
	VPADDQ Q1, A1, A1
	VPADDQ Q2, A2, A2
	VPADDQ Q3, A3, A3
	VPADDQ Q4, A4, A4
	VPSUBQ 0(DI), A0, A0
	VPSUBQ 64(DI), A1, A1
	VPSUBQ 128(DI), A2, A2
	VPSUBQ 192(DI), A3, A3
	VPSUBQ 256(DI), A4, A4
	NORM(VPSRAQ, A0, A1, A2, A3, A4)
	CSUB(A0, A1, A2, A3, A4)
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $320, SI
	ADDQ $320, DI
	DECQ BX
	JNZ  subLoop
	VZEROUPPER
	RET

// func blockNegIFMA(z, x *Block, nv int, c *ifmaConst)
//
// M − x lies in (0, M]; CSUB takes M to 0.
TEXT ·blockNegIFMA(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ nv+16(FP), BX
	MOVQ c+24(FP), R9
	SETUP

negLoop:
	VPSUBQ 0(SI), Q0, A0
	VPSUBQ 64(SI), Q1, A1
	VPSUBQ 128(SI), Q2, A2
	VPSUBQ 192(SI), Q3, A3
	VPSUBQ 256(SI), Q4, A4
	NORM(VPSRAQ, A0, A1, A2, A3, A4)
	CSUB(A0, A1, A2, A3, A4)
	STORE_D(R8)
	ADDQ $320, R8
	ADDQ $320, SI
	DECQ BX
	JNZ  negLoop
	VZEROUPPER
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The NTT kernels (ntt.go). A transform's data rides in its blocks at
// R = 2^256, the MontMul form cut into 52-bit limbs, and its twiddle and
// scaling tables at R = 2^260 (LoadBlock's form), so a product of the two
// is again at R = 2^256 and data enters and leaves block form by shifts
// alone. X0..X4 hold a butterfly's first operand; A0..A4 its second, the
// MONT operand.

#define X0 Z27
#define X1 Z28
#define X2 Z29
#define X3 Z30
#define X4 Z31

// SUMDIFF forms a butterfly's unreduced sum x + t into A0..A4 and its
// difference x + (M − t) into X0..X4, for x in X0..X4 and t in D0..D4.
#define SUMDIFF \
	VPADDQ D0, X0, A0; \
	VPADDQ Q0, X0, X0; \
	VPSUBQ D0, X0, X0; \
	VPADDQ D1, X1, A1; \
	VPADDQ Q1, X1, X1; \
	VPSUBQ D1, X1, X1; \
	VPADDQ D2, X2, A2; \
	VPADDQ Q2, X2, X2; \
	VPSUBQ D2, X2, X2; \
	VPADDQ D3, X3, A3; \
	VPADDQ Q3, X3, X3; \
	VPSUBQ D3, X3, X3; \
	VPADDQ D4, X4, A4; \
	VPADDQ Q4, X4, X4; \
	VPSUBQ D4, X4, X4

// LOAD_X loads the five limbs of the vector at p into X0..X4.
#define LOAD_X(p) \
	VMOVDQU64 0(p), X0;   \
	VMOVDQU64 64(p), X1;  \
	VMOVDQU64 128(p), X2; \
	VMOVDQU64 192(p), X3; \
	VMOVDQU64 256(p), X4

// SPLIT cuts the four 64-bit words in D0..D3 into five 52-bit limbs in
// A0..A4.
#define SPLIT \
	VPANDQ ZMASK, D0, A0; \
	VPSRLQ $52, D0, A1;   \
	VPSLLQ $12, D1, ZS;   \
	VPORQ  ZS, A1, A1;    \
	VPANDQ ZMASK, A1, A1; \
	VPSRLQ $40, D1, A2;   \
	VPSLLQ $24, D2, ZS;   \
	VPORQ  ZS, A2, A2;    \
	VPANDQ ZMASK, A2, A2; \
	VPSRLQ $28, D2, A3;   \
	VPSLLQ $36, D3, ZS;   \
	VPORQ  ZS, A3, A3;    \
	VPANDQ ZMASK, A3, A3; \
	VPSRLQ $16, D3, A4

// JOIN joins the five normalized 52-bit limbs in D0..D4 into four 64-bit
// words in A0..A3.
#define JOIN \
	VPSLLQ $52, D1, ZS;  \
	VPORQ  ZS, D0, A0;   \
	VPSRLQ $12, D1, A1;  \
	VPSLLQ $40, D2, ZS;  \
	VPORQ  ZS, A1, A1;   \
	VPSRLQ $24, D2, A2;  \
	VPSLLQ $28, D3, ZS;  \
	VPORQ  ZS, A2, A2;   \
	VPSRLQ $36, D3, A3;  \
	VPSLLQ $16, D4, ZS;  \
	VPORQ  ZS, A3, A3

// func blockGatherIFMA(z *Block, src *Limbs, idx *[BlockRows]int, n int, c *ifmaConst)
//
// Per vector: gather each 64-bit limb of up to eight rows src[idx[r]]
// (masked, so no row past n is read, and its lanes are zero) and cut the
// four words into five 52-bit limbs, keeping R = 2^256.
TEXT ·blockGatherIFMA(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), R8
	MOVQ src+8(FP), SI
	MOVQ idx+16(FP), DI
	MOVQ n+24(FP), BX
	MOVQ c+32(FP), R9
	SETUP

gatherLoop:
	ROW_MASK
	VMOVDQU64  0(DI), ZIDX
	VPSLLQ     $2, ZIDX, ZIDX
	VPXORQ     D0, D0, D0
	KMOVW      K2, K1
	VPGATHERQQ 0(SI)(ZIDX*8), K1, D0
	VPXORQ     D1, D1, D1
	KMOVW      K2, K1
	VPGATHERQQ 8(SI)(ZIDX*8), K1, D1
	VPXORQ     D2, D2, D2
	KMOVW      K2, K1
	VPGATHERQQ 16(SI)(ZIDX*8), K1, D2
	VPXORQ     D3, D3, D3
	KMOVW      K2, K1
	VPGATHERQQ 24(SI)(ZIDX*8), K1, D3
	SPLIT
	VMOVDQU64  A0, 0(R8)
	VMOVDQU64  A1, 64(R8)
	VMOVDQU64  A2, 128(R8)
	VMOVDQU64  A3, 192(R8)
	VMOVDQU64  A4, 256(R8)
	ADDQ       $320, R8
	ADDQ       $64, DI
	SUBQ       $8, BX
	JGT        gatherLoop
	VZEROUPPER
	RET

// func blockPutIFMA(dst *Limbs, x *Block, n int, c *ifmaConst)
//
// Per vector: join the five limbs into four words, keeping R = 2^256, and
// scatter them (masked, so no row past n is written).
TEXT ·blockPutIFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ c+24(FP), R9
	SETUP
	VMOVDQU64 gatherIdx<>(SB), ZIDX

putLoop:
	VMOVDQU64   0(SI), D0
	VMOVDQU64   64(SI), D1
	VMOVDQU64   128(SI), D2
	VMOVDQU64   192(SI), D3
	VMOVDQU64   256(SI), D4
	JOIN
	ROW_MASK
	KMOVW       K2, K1
	VPSCATTERQQ A0, K1, 0(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A1, K1, 8(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A2, K1, 16(DI)(ZIDX*8)
	KMOVW       K2, K1
	VPSCATTERQQ A3, K1, 24(DI)(ZIDX*8)
	ADDQ        $320, SI
	ADDQ        $256, DI
	SUBQ        $8, BX
	JGT         putLoop
	VZEROUPPER
	RET

// BFLY_OUT reduces the butterfly SUMDIFF formed and stores the sum as the
// vector at px and the difference as the vector at py.
#define BFLY_OUT(px, py) \
	NORM(VPSRLQ, A0, A1, A2, A3, A4); \
	CSUB(A0, A1, A2, A3, A4);         \
	STORE_D(px);                      \
	NORM(VPSRAQ, X0, X1, X2, X3, X4); \
	CSUB(X0, X1, X2, X3, X4);         \
	STORE_D(py)

// func butterfliesIFMA(x, w *Block, groups, dist, cnt int, c *ifmaConst)
//
// For each of groups groups of 2·dist blocks from x, and k < cnt: with a
// block k of the group, b block dist + k and t = b·w[k]·2^-260, it sets
// them to a + t and a − t. Both vectors of every block are processed.
TEXT ·butterfliesIFMA(SB), NOSPLIT, $0-48
	MOVQ  x+0(FP), R8
	MOVQ  groups+16(FP), R10
	MOVQ  dist+24(FP), R11
	IMULQ $640, R11
	MOVQ  cnt+32(FP), R12
	SHLQ  $1, R12
	MOVQ  c+40(FP), R9
	SETUP

groupLoop:
	MOVQ R8, SI
	LEAQ (R8)(R11*1), CX
	MOVQ w+8(FP), DI
	MOVQ R12, BX

pairLoop:
	LOAD_A(CX)
	MONT(VMOVDQU64, 0(DI), 64(DI), 128(DI), 192(DI), 256(DI))
	LOAD_X(SI)
	SUMDIFF
	BFLY_OUT(SI, CX)
	ADDQ $320, SI
	ADDQ $320, CX
	ADDQ $320, DI
	DECQ BX
	JNZ  pairLoop
	ADDQ R11, R8
	ADDQ R11, R8
	DECQ R10
	JNZ  groupLoop
	VZEROUPPER
	RET

// The in-block stages pair lane i of a vector of first operands with lane i
// of a vector of second ones, shuffled out of the block's two vectors V0
// (rows 0–7, at R8) and V1 (rows 8–15, at R13 = R8 + 320); c0..c3 below are
// a vector's 128-bit chunks, two rows each. After the butterfly the sums S
// (in D0..D4) and differences T (in X0..X4) are shuffled back.
//
//   h = 1: first rows 0,8,2,10,4,12,6,14, second 1,9,3,11,5,13,7,15
//          (VPUNPCKLQDQ and VPUNPCKHQDQ of V0 and V1, and of S and T back)
//   h = 2: first [V0.c0 V0.c2 V1.c0 V1.c2], second [V0.c1 V0.c3 V1.c1 V1.c3]
//   h = 4: first [V0.c0 V0.c1 V1.c0 V1.c1], second [V0.c2 V0.c3 V1.c2 V1.c3]
//   h = 8: first V0, second V1

// IN_UNPCK(off, a) loads limb off/64 of V0 and V1 and sets X_a to the
// first operands of stage h = 1 and D_a to the second.
#define IN_UNPCK(off, xa, da) \
	VMOVDQU64   off(R8), ZS;      \
	VPUNPCKLQDQ off(R13), ZS, xa; \
	VPUNPCKHQDQ off(R13), ZS, da

// IN_SHUF(off, i1, i2, xa, aa) loads limb off/64 of V0 and V1 and sets xa
// to the first operands (chunk shuffle i1) and aa to the second (i2).
#define IN_SHUF(off, i1, i2, xa, aa) \
	VMOVDQU64  off(R8), ZS;         \
	VSHUFI64X2 i1, off(R13), ZS, xa; \
	VSHUFI64X2 i2, off(R13), ZS, aa

// The shuffles back, per limb, from S in da and T in xa.
#define OUT_UNPCK(off, da, xa) \
	VPUNPCKLQDQ xa, da, ZS; \
	VMOVDQU64   ZS, off(R8); \
	VPUNPCKHQDQ xa, da, ZS;  \
	VMOVDQU64   ZS, off(R13)

#define OUT_H2(off, da, xa) \
	VSHUFI64X2 $0x44, xa, da, ZS; \
	VSHUFI64X2 $0xd8, ZS, ZS, ZS; \
	VMOVDQU64  ZS, off(R8);       \
	VSHUFI64X2 $0xee, xa, da, ZS; \
	VSHUFI64X2 $0xd8, ZS, ZS, ZS; \
	VMOVDQU64  ZS, off(R13)

#define OUT_H4(off, da, xa) \
	VSHUFI64X2 $0x44, xa, da, ZS; \
	VMOVDQU64  ZS, off(R8);       \
	VSHUFI64X2 $0xee, xa, da, ZS; \
	VMOVDQU64  ZS, off(R13)

// STAGE_TAIL reduces the butterfly SUMDIFF formed: the differences into
// X0..X4, then the sums into D0..D4.
#define STAGE_TAIL \
	NORM(VPSRAQ, X0, X1, X2, X3, X4); \
	CSUB(X0, X1, X2, X3, X4);         \
	VMOVDQA64 D0, X0;                 \
	VMOVDQA64 D1, X1;                 \
	VMOVDQA64 D2, X2;                 \
	VMOVDQA64 D3, X3;                 \
	VMOVDQA64 D4, X4;                 \
	NORM(VPSRLQ, A0, A1, A2, A3, A4); \
	CSUB(A0, A1, A2, A3, A4)

// func inBlockIFMA(x *Block, nb int, tw *InBlockTwiddles, stages int, c *ifmaConst)
//
// Runs the first stages (1 ≤ stages ≤ 4) of the in-block stages h = 1, 2,
// 4, 8 of a decimation-in-time NTT on each of the nb blocks from x. Stage
// h = 1's twiddles are 1; tw holds those of h = 2, 4 and 8 as one vector
// each, in the lane order of the stage's first operands.
TEXT ·inBlockIFMA(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), R8
	MOVQ nb+8(FP), BX
	MOVQ tw+16(FP), DI
	MOVQ stages+24(FP), DX
	MOVQ c+32(FP), R9
	SETUP

inBlockLoop:
	LEAQ 320(R8), R13

	// h = 1: t is the second operand itself.
	IN_UNPCK(0, X0, D0)
	IN_UNPCK(64, X1, D1)
	IN_UNPCK(128, X2, D2)
	IN_UNPCK(192, X3, D3)
	IN_UNPCK(256, X4, D4)
	SUMDIFF
	STAGE_TAIL
	OUT_UNPCK(0, D0, X0)
	OUT_UNPCK(64, D1, X1)
	OUT_UNPCK(128, D2, X2)
	OUT_UNPCK(192, D3, X3)
	OUT_UNPCK(256, D4, X4)
	CMPQ DX, $2
	JLT  inBlockNext

	// h = 2
	IN_SHUF(0, $0x88, $0xdd, X0, A0)
	IN_SHUF(64, $0x88, $0xdd, X1, A1)
	IN_SHUF(128, $0x88, $0xdd, X2, A2)
	IN_SHUF(192, $0x88, $0xdd, X3, A3)
	IN_SHUF(256, $0x88, $0xdd, X4, A4)
	MONT(VMOVDQU64, 0(DI), 64(DI), 128(DI), 192(DI), 256(DI))
	SUMDIFF
	STAGE_TAIL
	OUT_H2(0, D0, X0)
	OUT_H2(64, D1, X1)
	OUT_H2(128, D2, X2)
	OUT_H2(192, D3, X3)
	OUT_H2(256, D4, X4)
	CMPQ DX, $3
	JLT  inBlockNext

	// h = 4
	IN_SHUF(0, $0x44, $0xee, X0, A0)
	IN_SHUF(64, $0x44, $0xee, X1, A1)
	IN_SHUF(128, $0x44, $0xee, X2, A2)
	IN_SHUF(192, $0x44, $0xee, X3, A3)
	IN_SHUF(256, $0x44, $0xee, X4, A4)
	MONT(VMOVDQU64, 320(DI), 384(DI), 448(DI), 512(DI), 576(DI))
	SUMDIFF
	STAGE_TAIL
	OUT_H4(0, D0, X0)
	OUT_H4(64, D1, X1)
	OUT_H4(128, D2, X2)
	OUT_H4(192, D3, X3)
	OUT_H4(256, D4, X4)
	CMPQ DX, $4
	JLT  inBlockNext

	// h = 8
	LOAD_A(R13)
	MONT(VMOVDQU64, 640(DI), 704(DI), 768(DI), 832(DI), 896(DI))
	LOAD_X(R8)
	SUMDIFF
	BFLY_OUT(R8, R13)

inBlockNext:
	ADDQ $640, R8
	DECQ BX
	JNZ  inBlockLoop
	VZEROUPPER
	RET

// The AddRun kernel (addrun.go). Lane j of the eight-lane vector g takes
// op 8g + j, and vector g continues the prefix chain of vector g − 2, so a
// run is sixteen interleaved chains. Coordinates stay at R = 2^256 in
// 52-bit limbs, so a gather or scatter through an op's pointers is a split
// or join of words, and a product of two such values picks up 2^-4, which
// the per-lane inverses the caller supplies fold in (addRunIFMA). Values
// that only feed further products are left below 2M (MONT_LAZY): a
// product of two of them is below 2M again, as M < 2^254.
//
// The scratch w holds, per vector g at 1920·g bytes, the chain value
// before it (P, at 0), the slope's denominator (D, at 320; zero when the
// sum is the point at infinity) and numerator times P (N, at 640, which
// the second pass overwrites with λ), and the gathered x_p, y_p and x_q
// (at 960, 1280 and 1600).

// ZP and ZQ hold the lanes' P and Q pointers (the NTT kernels' X0 and X1).
#define ZP Z27
#define ZQ Z28

// LOAD_AM and STORE_DM are LOAD_A and STORE_D for a vector at the memory
// operand m, such as 320(R8); LOAD_5 and STORE_5 move any five registers.
#define LOAD_AM(m) LOAD_5(m, A0, A1, A2, A3, A4)
#define STORE_DM(m) STORE_5(D0, D1, D2, D3, D4, m)

#define LOAD_5(m, r0, r1, r2, r3, r4) \
	VMOVDQU64 0+m, r0;   \
	VMOVDQU64 64+m, r1;  \
	VMOVDQU64 128+m, r2; \
	VMOVDQU64 192+m, r3; \
	VMOVDQU64 256+m, r4

#define STORE_5(r0, r1, r2, r3, r4, m) \
	VMOVDQU64 r0, 0+m;   \
	VMOVDQU64 r1, 64+m;  \
	VMOVDQU64 r2, 128+m; \
	VMOVDQU64 r3, 192+m; \
	VMOVDQU64 r4, 256+m

// STORE_LAZY stores MONT_LAZY's result as the vector at m.
#define STORE_LAZY(m) STORE_5(Z10, Z5, Z6, Z7, Z8, m)

// opIdx holds the lanes' qword offsets in eight consecutive 24-byte AddOps.
DATA opIdx<>+0(SB)/8, $0
DATA opIdx<>+8(SB)/8, $3
DATA opIdx<>+16(SB)/8, $6
DATA opIdx<>+24(SB)/8, $9
DATA opIdx<>+32(SB)/8, $12
DATA opIdx<>+40(SB)/8, $15
DATA opIdx<>+48(SB)/8, $18
DATA opIdx<>+56(SB)/8, $21
GLOBL opIdx<>(SB), RODATA|NOPTR, $64

// OP_FIELD gathers the qword at off of the K2 lanes' ops at SI into r;
// other lanes are zero.
#define OP_FIELD(off, r) \
	KMOVW      K2, K1;                \
	VPXORQ     r, r, r;               \
	VPGATHERQQ off(SI)(ZIDX*8), K1, r

// COORD gathers, in the lanes of mask k, the four words of the coordinate
// at byte offsets o0..o3 (0 … 24 for x, 32 … 56 for y) of the points in
// ptr into w0..w3 and splits them into five 52-bit limbs w0..w4; other
// lanes are zero. R11 is zero.
#define COORD(k, ptr, o0, o1, o2, o3, w0, w1, w2, w3, w4) \
	KMOVW      k, K1;                  \
	VPXORQ     w0, w0, w0;             \
	VPGATHERQQ o0(R11)(ptr*1), K1, w0; \
	KMOVW      k, K1;                  \
	VPXORQ     w1, w1, w1;             \
	VPGATHERQQ o1(R11)(ptr*1), K1, w1; \
	KMOVW      k, K1;                  \
	VPXORQ     w2, w2, w2;             \
	VPGATHERQQ o2(R11)(ptr*1), K1, w2; \
	KMOVW      k, K1;                  \
	VPXORQ     w3, w3, w3;             \
	VPGATHERQQ o3(R11)(ptr*1), K1, w3; \
	VPSRLQ     $16, w3, w4;            \
	VPSLLQ     $36, w3, w3;            \
	VPSRLQ     $28, w2, ZS;            \
	VPORQ      ZS, w3, w3;             \
	VPANDQ     ZMASK, w3, w3;          \
	VPSLLQ     $24, w2, w2;            \
	VPSRLQ     $40, w1, ZS;            \
	VPORQ      ZS, w2, w2;             \
	VPANDQ     ZMASK, w2, w2;          \
	VPSLLQ     $12, w1, w1;            \
	VPSRLQ     $52, w0, ZS;            \
	VPORQ      ZS, w1, w1;             \
	VPANDQ     ZMASK, w1, w1;          \
	VPANDQ     ZMASK, w0, w0

#define X_COORD(k, ptr, w0, w1, w2, w3, w4) COORD(k, ptr, 0, 8, 16, 24, w0, w1, w2, w3, w4)
#define Y_COORD(k, ptr, w0, w1, w2, w3, w4) COORD(k, ptr, 32, 40, 48, 56, w0, w1, w2, w3, w4)

// SCATTER writes the words in A0..A3 to byte offsets o0..o3 of the K2
// lanes' points in ZP. R11 is zero.
#define SCATTER(o0, o1, o2, o3) \
	KMOVW       K2, K1;                \
	VPSCATTERQQ A0, K1, o0(R11)(ZP*1); \
	KMOVW       K2, K1;                \
	VPSCATTERQQ A1, K1, o1(R11)(ZP*1); \
	KMOVW       K2, K1;                \
	VPSCATTERQQ A2, K1, o2(R11)(ZP*1); \
	KMOVW       K2, K1;                \
	VPSCATTERQQ A3, K1, o3(R11)(ZP*1)

// ZERO_LANES sets k to the lanes in which the value in r0..r4 is zero.
#define ZERO_LANES(r0, r1, r2, r3, r4, k) \
	VPORQ     r1, r0, ZS; \
	VPORQ     r2, ZS, ZS; \
	VPORQ     r3, ZS, ZS; \
	VPORQ     r4, ZS, ZS; \
	VPTESTNMQ ZS, ZS, k

// DEN_ONE loads a vector's denominators at m into A0..A4, sets K5 to the
// lanes where they are zero and puts 2^256 mod M, a one at R = 2^256, in
// those lanes: the chain multiplies by it where an op has no inverse to
// take.
#define DEN_ONE(m) \
	LOAD_AM(m);                         \
	ZERO_LANES(A0, A1, A2, A3, A4, K5); \
	VPBROADCASTQ 88(R9), K5, A0;        \
	VPBROADCASTQ 96(R9), K5, A1;        \
	VPBROADCASTQ 104(R9), K5, A2;       \
	VPBROADCASTQ 112(R9), K5, A3;       \
	VPBROADCASTQ 120(R9), K5, A4

// SUB_FROM_D sets D0..D4 to D0..D4 minus the vector at m, both below M,
// fully reduced; it clobbers Z5..Z9.
#define SUB_FROM_D(m) \
	LOAD_5(m, Z5, Z6, Z7, Z8, Z9);   \
	VPSUBQ Z5, D0, Z5;               \
	VPADDQ Q0, Z5, Z5;               \
	VPSUBQ Z6, D1, Z6;               \
	VPADDQ Q1, Z6, Z6;               \
	VPSUBQ Z7, D2, Z7;               \
	VPADDQ Q2, Z7, Z7;               \
	VPSUBQ Z8, D3, Z8;               \
	VPADDQ Q3, Z8, Z8;               \
	VPSUBQ Z9, D4, Z9;               \
	VPADDQ Q4, Z9, Z9;               \
	NORM(VPSRAQ, Z5, Z6, Z7, Z8, Z9); \
	CSUB(Z5, Z6, Z7, Z8, Z9)

// CHAIN multiplies the numerator of the vector at DI by its chain value P
// into N, and P by D, or by a one where D is zero, into the P of the vector
// two on.
#define CHAIN \
	LOAD_AM(640(DI));                                                  \
	MONT_LAZY(VMOVDQU64, 0(DI), 64(DI), 128(DI), 192(DI), 256(DI));   \
	STORE_LAZY(640(DI));                                               \
	DEN_ONE(320(DI));                                                  \
	MONT_LAZY(VMOVDQU64, 0(DI), 64(DI), 128(DI), 192(DI), 256(DI));   \
	STORE_LAZY(3840(DI))

// func addRunFirstIFMA(ops *AddOp, n int, w, tmp *uint64, c *ifmaConst)
//
// AddRun's first pass over n ≥ 1 ops, eight per vector. Per vector it
// gathers x_p, y_p and x_q and writes D = x_q − x_p and the numerator
// y_q − y_p, with y_q negated in Neg lanes, or, where both are zero (a
// doubling), D = 2y_p and 3x_p²; then CHAIN. Each iteration forms one
// vector's slope and runs the CHAIN of the vector before, so the gathers
// overlap the products. The caller sets the P of vectors 0 and 1; the
// chains' totals end in the P of vectors ⌈n/8⌉ and ⌈n/8⌉ + 1. tmp is one
// vector of working space.
TEXT ·addRunFirstIFMA(SB), NOSPLIT, $0-40
	MOVQ ops+0(FP), SI
	MOVQ n+8(FP), BX
	MOVQ w+16(FP), R8
	MOVQ R8, R12
	MOVQ tmp+24(FP), R10
	MOVQ c+32(FP), R9
	SETUP
	VMOVDQU64 opIdx<>(SB), ZIDX
	XORQ      R11, R11

firstLoop:
	ROW_MASK
	OP_FIELD(0, ZP)
	OP_FIELD(8, ZQ)
	OP_FIELD(16, ZS)
	MOVQ         $0xff, AX
	VPBROADCASTQ AX, ZB
	VPTESTMQ     ZB, ZS, K2, K3 // K3: Neg lanes
	KNOTW        K3, K4

	// D = x_q − x_p + M, or M − (x_q − x_p) in Neg lanes: there the
	// slope is (−y_q − y_p)/(x_q − x_p) = (y_q + y_p)/(x_p − x_q).
	X_COORD(K2, ZQ, A0, A1, A2, A3, A4)
	STORE_5(A0, A1, A2, A3, A4, 1600(R8))
	X_COORD(K2, ZP, Z5, Z6, Z7, Z8, Z9)
	STORE_5(Z5, Z6, Z7, Z8, Z9, 960(R8))
	VPSUBQ Z5, A0, Z5
	VPADDQ Q0, Z5, K4, Z5
	VPSUBQ Z5, Q0, K3, Z5
	VPSUBQ Z6, A1, Z6
	VPADDQ Q1, Z6, K4, Z6
	VPSUBQ Z6, Q1, K3, Z6
	VPSUBQ Z7, A2, Z7
	VPADDQ Q2, Z7, K4, Z7
	VPSUBQ Z7, Q2, K3, Z7
	VPSUBQ Z8, A3, Z8
	VPADDQ Q3, Z8, K4, Z8
	VPSUBQ Z8, Q3, K3, Z8
	VPSUBQ Z9, A4, Z9
	VPADDQ Q4, Z9, K4, Z9
	VPSUBQ Z9, Q4, K3, Z9
	NORM(VPSRAQ, Z5, Z6, Z7, Z8, Z9)
	CSUB(Z5, Z6, Z7, Z8, Z9)
	STORE_DM(320(R8))
	ZERO_LANES(D0, D1, D2, D3, D4, K5)

	// The numerator y_q + (M − y_p), or y_q + y_p in Neg lanes.
	Y_COORD(K2, ZQ, A0, A1, A2, A3, A4)
	Y_COORD(K2, ZP, Z5, Z6, Z7, Z8, Z9)
	STORE_5(Z5, Z6, Z7, Z8, Z9, 1280(R8))
	VPSUBQ Z5, Q0, K4, Z5
	VPADDQ A0, Z5, Z5
	VPSUBQ Z6, Q1, K4, Z6
	VPADDQ A1, Z6, Z6
	VPSUBQ Z7, Q2, K4, Z7
	VPADDQ A2, Z7, Z7
	VPSUBQ Z8, Q3, K4, Z8
	VPADDQ A3, Z8, Z8
	VPSUBQ Z9, Q4, K4, Z9
	VPADDQ A4, Z9, Z9
	NORM(VPSRAQ, Z5, Z6, Z7, Z8, Z9)
	CSUB(Z5, Z6, Z7, Z8, Z9)
	STORE_DM(640(R8))
	ZERO_LANES(D0, D1, D2, D3, D4, K6)
	KANDW    K5, K6, K6
	KANDW    K2, K6, K6 // K6: doublings
	KORTESTW K6, K6
	JNZ      firstDouble

firstChain:
	CMPQ R8, R12
	JEQ  firstNext
	LEAQ -1920(R8), DI
	CHAIN

firstNext:
	ADDQ $1920, R8
	ADDQ $192, SI
	SUBQ $8, BX
	JGT  firstLoop
	LEAQ -1920(R8), DI
	CHAIN
	VZEROUPPER
	RET

firstDouble:
	// The numerator 3x_p² in the doubling lanes, as (4x_p)(12x_p)·2^-260:
	// both factors are below 2^260, their product's reduction below 2M.
	LOAD_AM(960(R8))
	VPSLLQ $2, A0, A0
	VPSLLQ $2, A1, A1
	VPSLLQ $2, A2, A2
	VPSLLQ $2, A3, A3
	VPSLLQ $2, A4, A4
	NORM(VPSRLQ, A0, A1, A2, A3, A4)
	STORE_5(A0, A1, A2, A3, A4, 0(R10))
	VPADDQ A0, A0, ZS
	VPADDQ ZS, A0, A0
	VPADDQ A1, A1, ZS
	VPADDQ ZS, A1, A1
	VPADDQ A2, A2, ZS
	VPADDQ ZS, A2, A2
	VPADDQ A3, A3, ZS
	VPADDQ ZS, A3, A3
	VPADDQ A4, A4, ZS
	VPADDQ ZS, A4, A4
	NORM(VPSRLQ, A0, A1, A2, A3, A4)
	MONT(VMOVDQU64, 0(R10), 64(R10), 128(R10), 192(R10), 256(R10))
	VMOVDQU64 D0, K6, 640(R8)
	VMOVDQU64 D1, K6, 704(R8)
	VMOVDQU64 D2, K6, 768(R8)
	VMOVDQU64 D3, K6, 832(R8)
	VMOVDQU64 D4, K6, 896(R8)

	// D = 2y_p in the doubling lanes.
	LOAD_AM(1280(R8))
	VPADDQ    A0, A0, A0
	VPADDQ    A1, A1, A1
	VPADDQ    A2, A2, A2
	VPADDQ    A3, A3, A3
	VPADDQ    A4, A4, A4
	NORM(VPSRLQ, A0, A1, A2, A3, A4)
	CSUB(A0, A1, A2, A3, A4)
	VMOVDQU64 D0, K6, 320(R8)
	VMOVDQU64 D1, K6, 384(R8)
	VMOVDQU64 D2, K6, 448(R8)
	VMOVDQU64 D3, K6, 512(R8)
	VMOVDQU64 D4, K6, 576(R8)
	JMP       firstChain

// LAMBDA sets the N of the vector at DI to λ = inv·N, at R = 2^258, with
// inv the running inverse at R10.
#define LAMBDA \
	LOAD_A(R10);                                                           \
	MONT_LAZY(VMOVDQU64, 640(DI), 704(DI), 768(DI), 832(DI), 896(DI));   \
	STORE_LAZY(640(DI))

// NEXT_INV sets the running inverse at R10 to inv·D, a one in K5's lanes,
// for the vector at DI.
#define NEXT_INV \
	DEN_ONE(320(DI));                                                      \
	MONT_LAZY(VMOVDQU64, 0(R10), 64(R10), 128(R10), 192(R10), 256(R10)); \
	STORE_LAZY(0(R10))

// func addRunSecondIFMA(ops *AddOp, n int, w, inv, tmp *uint64, c *ifmaConst)
//
// AddRun's second pass, over the vectors from the last. inv holds two
// vectors of running inverses, that of the last vector's chain first: each
// 2^518/P' for the chain value P' = P·D·2^-260 after the vector. With u
// the numerator, N = u·P·2^-260, so LAMBDA's λ = inv·N·2^-260 = 2^258·u/D
// is the slope at R = 2^258, and NEXT_INV's inv·D·2^-260 = 2^518/P is the
// running inverse of the vector before. Then x₃ = λ²·2^-260 − x_p − x_q
// and y₃ = 4(x_p − x₃)·λ·2^-260 − y_p, both at R = 2^256, fully reduced,
// and (0, 0) where D is zero. Each iteration applies one vector's sums and
// forms the λ of the vector before, so the two chains of products overlap.
// tmp is one vector of working space.
TEXT ·addRunSecondIFMA(SB), NOSPLIT, $0-48
	MOVQ  n+8(FP), BX
	LEAQ  7(BX), DX
	SHRQ  $3, DX                 // vectors
	LEAQ  -1(DX), AX
	MOVQ  AX, CX
	IMULQ $192, CX
	MOVQ  ops+0(FP), SI
	ADDQ  CX, SI
	MOVQ  AX, CX
	IMULQ $1920, CX
	MOVQ  w+16(FP), R8
	ADDQ  CX, R8
	SHLQ  $3, AX
	SUBQ  AX, BX                 // the last vector's ops
	MOVQ  inv+24(FP), R10
	LEAQ  320(R10), R12
	MOVQ  tmp+32(FP), R13
	MOVQ  c+40(FP), R9
	SETUP
	VMOVDQU64 opIdx<>(SB), ZIDX
	XORQ      R11, R11
	MOVQ      R8, DI
	LAMBDA
	NEXT_INV
	XCHGQ     R10, R12

secondLoop:
	// λ² of this vector; λ of the one before, on the other chain.
	LOAD_AM(640(R8))
	MONT(VMOVDQU64, 640(R8), 704(R8), 768(R8), 832(R8), 896(R8))
	LEAQ -1920(R8), DI
	DECQ DX
	JZ   secondX
	LAMBDA

secondX:
	// x₃ = λ² − x_p − x_q.
	SUB_FROM_D(960(R8))
	SUB_FROM_D(1600(R8))
	STORE_DM(0(R13))
	TESTQ DX, DX
	JZ    secondY
	NEXT_INV

secondY:
	// y₃ = 4(x_p − x₃ + M)·λ − y_p: the 4 takes λ from R = 2^258 to 2^260.
	LOAD_AM(960(R8))
	VPSUBQ D0, A0, A0
	VPADDQ Q0, A0, A0
	VPSLLQ $2, A0, A0
	VPSUBQ D1, A1, A1
	VPADDQ Q1, A1, A1
	VPSLLQ $2, A1, A1
	VPSUBQ D2, A2, A2
	VPADDQ Q2, A2, A2
	VPSLLQ $2, A2, A2
	VPSUBQ D3, A3, A3
	VPADDQ Q3, A3, A3
	VPSLLQ $2, A3, A3
	VPSUBQ D4, A4, A4
	VPADDQ Q4, A4, A4
	VPSLLQ $2, A4, A4
	NORM(VPSRAQ, A0, A1, A2, A3, A4)
	MONT(VMOVDQU64, 640(R8), 704(R8), 768(R8), 832(R8), 896(R8))
	SUB_FROM_D(1280(R8))

	// P = (x₃, y₃), or (0, 0) where D is zero.
	ROW_MASK
	OP_FIELD(0, ZP)
	LOAD_5(320(R8), Z5, Z6, Z7, Z8, Z9)
	ZERO_LANES(Z5, Z6, Z7, Z8, Z9, K5)
	KNOTW       K5, K6
	VMOVDQU64.Z D0, K6, D0
	VMOVDQU64.Z D1, K6, D1
	VMOVDQU64.Z D2, K6, D2
	VMOVDQU64.Z D3, K6, D3
	VMOVDQU64.Z D4, K6, D4
	JOIN
	SCATTER(32, 40, 48, 56)
	VMOVDQU64.Z 0(R13), K6, D0
	VMOVDQU64.Z 64(R13), K6, D1
	VMOVDQU64.Z 128(R13), K6, D2
	VMOVDQU64.Z 192(R13), K6, D3
	VMOVDQU64.Z 256(R13), K6, D4
	JOIN
	SCATTER(0, 8, 16, 24)

	SUBQ  $1920, R8
	SUBQ  $192, SI
	ADDQ  $8, BX
	XCHGQ R10, R12
	TESTQ DX, DX
	JNZ   secondLoop
	VZEROUPPER
	RET
