#include "textflag.h"

// The MC kernels: a macroblock row is 16 pixels, one XMM register, and
// its residual is two 8-lane int16 rows, one in each of two horizontally
// adjacent 8×8 blocks, 128 bytes apart. Each loop step handles row j
// (blocks 0 and 1) and row j+8 (blocks 2 and 3, 256 bytes further on),
// so every offset is a constant and the macroblock and residual pointers
// advance 16 bytes a step (reconstruct's destination, a stride).
// X7 stays zero: PUNPCKLBW/PUNPCKHBW against it widen the low and high
// eight pixels to int16.

// WIDEN zero-extends the 16 pixels at src into the int16 lanes of lo and
// hi.
#define WIDEN(src, lo, hi) \
	MOVOU     src, lo; \
	MOVO      lo, hi; \
	PUNPCKLBW X7, lo; \
	PUNPCKHBW X7, hi

// RECON writes pred row pix + residual to dst: the residual halves at
// res and res+128 are added with signed saturation and PACKUSWB clamps
// the sums to 0…255.
#define RECON(pix, res, dst) \
	WIDEN(pix(SI), X0, X1); \
	MOVOU    res(DX), X2; \
	MOVOU    res+128(DX), X3; \
	PADDSW   X2, X0; \
	PADDSW   X3, X1; \
	PACKUSWB X1, X0; \
	MOVOU    X0, dst

// func reconstructSSE2(dst *byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block)
//
// Row j of dst is at DI, row j+8 at R8 = DI + 8·stride.
TEXT ·reconstructSSE2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), BX
	MOVQ pred+16(FP), SI
	MOVQ blocks+24(FP), DX
	LEAQ (DI)(BX*8), R8
	PXOR X7, X7
	MOVQ $8, CX

recon:
	RECON(0, 0, (DI))
	RECON(128, 256, (R8))
	ADDQ BX, DI
	ADDQ BX, R8
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  recon
	RET

// RESID writes cur − pred of row pix as the residual halves at res and
// res+128.
#define RESID(pix, res) \
	WIDEN(pix(SI), X0, X1); \
	WIDEN(pix(BX), X2, X3); \
	PSUBW X2, X0; \
	PSUBW X3, X1; \
	MOVOU X0, res(DX); \
	MOVOU X1, res+128(DX)

// func residual(cur, pred *MBPixels, blocks *[BlocksPerMB]Block)
TEXT ·residual(SB), NOSPLIT, $0-24
	MOVQ cur+0(FP), SI
	MOVQ pred+8(FP), BX
	MOVQ blocks+16(FP), DX
	PXOR X7, X7
	MOVQ $8, CX

resid:
	RESID(0, 0)
	RESID(128, 256)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  resid
	RET

// AVG writes the rounded average of 16 bytes of a and b at off to dst.
#define AVG(off) \
	MOVOU off(SI), X0; \
	MOVOU off(DX), X1; \
	PAVGB X1, X0; \
	MOVOU X0, off(DI)

// func average(dst, a, b *MBPixels)
//
// Four rows per step. Each row is read before it is written, so dst may
// be a or b.
TEXT ·average(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ $4, CX

avg:
	AVG(0)
	AVG(16)
	AVG(32)
	AVG(48)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  avg
	RET
