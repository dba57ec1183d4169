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
	NORM(VPSRLQ, Z10, Z5, Z6, Z7, Z8);  \
	CSUB(Z10, Z5, Z6, Z7, Z8)

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
