#include "textflag.h"

// The MC kernels: a macroblock row is 16 pixels, one XMM register, and
// its residual is two 8-lane int16 rows, one in each of two horizontally
// adjacent 8×8 blocks, 128 bytes apart. Each loop step handles row j
// (blocks 0 and 1) and row j+8 (blocks 2 and 3, 256 bytes further on),
// so every residual and macroblock offset is a constant and those
// pointers advance 16 bytes a step. A prediction is a view: a kernel keeps
// one pointer at its row j and one at row j+8, 8·pstride further on, and
// advances both by pstride a step, as reconstruct's destination advances
// by its stride.
// X7 stays zero: PUNPCKLBW/PUNPCKHBW against it widen the low and high
// eight pixels to int16.

// WIDEN zero-extends the 16 pixels at src into the int16 lanes of lo and
// hi.
#define WIDEN(src, lo, hi) \
	MOVOU     src, lo; \
	MOVO      lo, hi; \
	PUNPCKLBW X7, lo; \
	PUNPCKHBW X7, hi

// RECON writes pred row src + residual to dst: the residual halves at
// res and res+128 are added with signed saturation and PACKUSWB clamps
// the sums to 0…255.
#define RECON(src, res, dst) \
	WIDEN(src, X0, X1); \
	MOVOU    res(DX), X2; \
	MOVOU    res+128(DX), X3; \
	PADDSW   X2, X0; \
	PADDSW   X3, X1; \
	PACKUSWB X1, X0; \
	MOVOU    X0, dst

// func reconstructSSE2(dst *byte, stride int, pred *byte, pstride int, blocks *[BlocksPerMB]Block)
//
// Row j of dst is at DI, row j+8 at R8 = DI + 8·stride.
TEXT ·reconstructSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), BX
	MOVQ pred+16(FP), SI
	MOVQ pstride+24(FP), R10
	MOVQ blocks+32(FP), DX
	LEAQ (DI)(BX*8), R8
	LEAQ (SI)(R10*8), R11
	PXOR X7, X7
	MOVQ $8, CX

recon:
	RECON((SI), 0, (DI))
	RECON((R11), 256, (R8))
	ADDQ BX, DI
	ADDQ BX, R8
	ADDQ R10, SI
	ADDQ R10, R11
	ADDQ $16, DX
	DECQ CX
	JNZ  recon
	RET

// RESID writes cur − pred of macroblock row cur, pred row src, as the
// residual halves at res and res+128.
#define RESID(cur, src, res) \
	WIDEN(cur(SI), X0, X1); \
	WIDEN(src, X2, X3); \
	PSUBW X2, X0; \
	PSUBW X3, X1; \
	MOVOU X0, res(DX); \
	MOVOU X1, res+128(DX)

// func residualSSE2(cur *MBPixels, pred *byte, pstride int, blocks *[BlocksPerMB]Block)
TEXT ·residualSSE2(SB), NOSPLIT, $0-32
	MOVQ cur+0(FP), SI
	MOVQ pred+8(FP), BX
	MOVQ pstride+16(FP), R10
	MOVQ blocks+24(FP), DX
	LEAQ (BX)(R10*8), R11
	PXOR X7, X7
	MOVQ $8, CX

resid:
	RESID(0, (BX), 0)
	RESID(128, (R11), 256)
	ADDQ $16, SI
	ADDQ R10, BX
	ADDQ R10, R11
	ADDQ $16, DX
	DECQ CX
	JNZ  resid
	RET

// AVG writes the rounded average of rows a and b to dst.
#define AVG(a, b, dst) \
	MOVOU a, X0; \
	MOVOU b, X1; \
	PAVGB X1, X0; \
	MOVOU X0, dst

// func averageSSE2(dst *MBPixels, a *byte, astride int, b *byte, bstride int)
//
// Rows j and j+8 per step: a's at SI and R10 = SI + 8·astride, b's at DX
// and R11 = DX + 8·bstride. Each row is read before it is written and
// never read again, so dst may be a or b at stride 16.
TEXT ·averageSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ astride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ bstride+32(FP), R9
	LEAQ (SI)(R8*8), R10
	LEAQ (DX)(R9*8), R11
	MOVQ $8, CX

avg:
	AVG((SI), (DX), (DI))
	AVG((R10), (R11), 128(DI))
	ADDQ $16, DI
	ADDQ R8, SI
	ADDQ R8, R10
	ADDQ R9, DX
	ADDQ R9, R11
	DECQ CX
	JNZ  avg
	RET
