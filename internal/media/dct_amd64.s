#include "textflag.h"

// func dct2dSSE2(src, dst *Block, m *dctPassTab) bool
//
// Both passes are one step run eight times: output j of four rows at once
// is Σ_p PMADDWD(pair vector p, m[j][p]), rounded as (sum + 2048) >> 12.
// The eight rows are loaded, and two 4×4 dword transposes (TRANSPOSE4)
// turn them into pair vectors: X0+p holds dword p (coefficients 2p and
// 2p+1) of rows 0…3, X4+p the same of rows 4…7. DOT leaves output j of
// rows 0…3 in X12 and of rows 4…7 in X13, and PACKSSDW makes them one
// column vector: row j of the result is column j of the pass.
//
// The row pass stores its eight column vectors in the 128-byte frame and
// ORs x + 32768 of every intermediate x into X10 (FIT). If any x lies
// outside int16, PACKSSDW has saturated it; the kernel then returns false
// and writes nothing. Otherwise the column pass reloads the frame as its
// eight rows, runs the same step, and its PACKSSDW is the final clamp16:
// column vector j is dst row j. src is read only into registers before
// dst is written, so src == dst is safe.
//
// Registers: X0–X7 pair vectors, X8 scratch, X9 rounding (2048 ×4),
// X10 fit accumulator, X11 bias (32768 ×4), X12–X15 sums. Go spells
// PMADDWD and PACKSSDW as PMADDWL and PACKSSLW.

// TRANSPOSE4 turns rows a, b, c, d (dwords r0…r3) into a = [a0 b0 c0 d0],
// b = [a1 b1 c1 d1], c = [a2 b2 c2 d2], d = [a3 b3 c3 d3].
#define TRANSPOSE4(a, b, c, d) \
	MOVO       a, X12; \
	PUNPCKLLQ  b, X12; \
	PUNPCKHLQ  b, a; \
	MOVO       c, X13; \
	PUNPCKLLQ  d, X13; \
	PUNPCKHLQ  d, c; \
	MOVO       X12, b; \
	PUNPCKHQDQ X13, b; \
	PUNPCKLQDQ X13, X12; \
	MOVO       a, d; \
	PUNPCKHQDQ c, d; \
	PUNPCKLQDQ c, a; \
	MOVO       a, c; \
	MOVO       X12, a

// LOADROWS loads eight 16-byte rows from base into X0–X7 and makes them
// pair vectors.
#define LOADROWS(base) \
	MOVOU 0(base), X0; \
	MOVOU 16(base), X1; \
	MOVOU 32(base), X2; \
	MOVOU 48(base), X3; \
	MOVOU 64(base), X4; \
	MOVOU 80(base), X5; \
	MOVOU 96(base), X6; \
	MOVOU 112(base), X7; \
	TRANSPOSE4(X0, X1, X2, X3); \
	TRANSPOSE4(X4, X5, X6, X7)

// DOT sums the four PMADDWD of pair vectors p0…p3 against m[j][0…3] at
// (off)(AX) into acc, using t, and rounds: acc = (Σ + 2048) >> 12.
#define DOT(off, p0, p1, p2, p3, acc, t) \
	MOVOU   (off)(AX), acc; \
	PMADDWL p0, acc; \
	MOVOU   (off+16)(AX), t; \
	PMADDWL p1, t; \
	PADDL   t, acc; \
	MOVOU   (off+32)(AX), t; \
	PMADDWL p2, t; \
	PADDL   t, acc; \
	MOVOU   (off+48)(AX), t; \
	PMADDWL p3, t; \
	PADDL   t, acc; \
	PADDL   X9, acc; \
	PSRAL   $12, acc

// STEP leaves column vector j, packed, in X12.
#define STEP(j) \
	DOT(j*64, X0, X1, X2, X3, X12, X14); \
	DOT(j*64, X4, X5, X6, X7, X13, X15)

// FIT ORs acc + 32768 into X10: a bit at 16 or above marks an x outside
// int16.
#define FIT(acc) \
	MOVO  acc, X8; \
	PADDL X11, X8; \
	POR   X8, X10

// ROWSTEP is STEP for the row pass: fit test, then column vector j to the
// frame.
#define ROWSTEP(j) \
	STEP(j); \
	FIT(X12); \
	FIT(X13); \
	PACKSSLW X13, X12; \
	MOVOU X12, (j*16)(SP)

// COLSTEP is STEP for the column pass: column vector j is dst row j.
#define COLSTEP(j) \
	STEP(j); \
	PACKSSLW X13, X12; \
	MOVOU X12, (j*16)(DI)

TEXT ·dct2dSSE2(SB), NOSPLIT, $128-25
	MOVQ   src+0(FP), SI
	MOVQ   dst+8(FP), DI
	MOVQ   m+16(FP), AX
	MOVL   $2048, BX
	MOVQ   BX, X9
	PSHUFD $0, X9, X9
	MOVL   $32768, BX
	MOVQ   BX, X11
	PSHUFD $0, X11, X11
	PXOR   X10, X10

	LOADROWS(SI)
	ROWSTEP(0)
	ROWSTEP(1)
	ROWSTEP(2)
	ROWSTEP(3)
	ROWSTEP(4)
	ROWSTEP(5)
	ROWSTEP(6)
	ROWSTEP(7)

	// Decline unless the high half of every fit dword is zero.
	PSRLL    $16, X10
	PXOR     X8, X8
	PCMPEQL  X8, X10
	PMOVMSKB X10, BX
	CMPL     BX, $0xFFFF
	JNE      decline

	LOADROWS(SP)
	COLSTEP(0)
	COLSTEP(1)
	COLSTEP(2)
	COLSTEP(3)
	COLSTEP(4)
	COLSTEP(5)
	COLSTEP(6)
	COLSTEP(7)
	MOVB $1, ret+24(FP)
	RET

decline:
	MOVB $0, ret+24(FP)
	RET

// func dct2dAVX2(src, dst *Block, m *dctPassTab) bool
//
// dct2dSSE2 on all eight rows at once. Y0+p holds dword p of rows 0…3 in
// its low lane and of rows 4…7 in its high lane (row r, then row r+4 by
// VINSERTI128, then TRANSPOSE4 in each lane), so output j is four
// VPMADDWD against m[j][p], broadcast from its first dword. VPACKSSDW
// packs outputs j and j+1 interleaved by lane, VPERMQ $0xD8 orders them,
// and one 32-byte store writes column vectors j and j+1, to the frame in
// the row pass and to dst in the column pass. Rounding, fit test,
// decline and src == dst are dct2dSSE2's. Every instruction is
// VEX-encoded (TestAVX2BodiesAreVEXOnly): a legacy SSE one after the
// first ymm write costs a state transition per call. The caller checks
// for AVX2 (hasAVX2).
//
// Registers: Y0–Y3 pair vectors, Y4–Y7 transpose scratch, Y8 scratch,
// Y9 rounding, Y10 fit accumulator, Y11 bias, Y12 and Y13 outputs j and
// j+1, Y14 products.

// YTRANSPOSE4 is TRANSPOSE4 of Y0…Y3 in each lane.
#define YTRANSPOSE4 \
	VPUNPCKLDQ  Y1, Y0, Y4; \
	VPUNPCKHDQ  Y1, Y0, Y5; \
	VPUNPCKLDQ  Y3, Y2, Y6; \
	VPUNPCKHDQ  Y3, Y2, Y7; \
	VPUNPCKLQDQ Y6, Y4, Y0; \
	VPUNPCKHQDQ Y6, Y4, Y1; \
	VPUNPCKLQDQ Y7, Y5, Y2; \
	VPUNPCKHQDQ Y7, Y5, Y3

// YLOADROWS is LOADROWS into Y0…Y3.
#define YLOADROWS(base) \
	VMOVDQU     0(base), X0; \
	VINSERTI128 $1, 64(base), Y0, Y0; \
	VMOVDQU     16(base), X1; \
	VINSERTI128 $1, 80(base), Y1, Y1; \
	VMOVDQU     32(base), X2; \
	VINSERTI128 $1, 96(base), Y2, Y2; \
	VMOVDQU     48(base), X3; \
	VINSERTI128 $1, 112(base), Y3, Y3; \
	YTRANSPOSE4

// YDOT is DOT of all eight rows into acc.
#define YDOT(off, acc) \
	VPBROADCASTD (off)(AX), acc; \
	VPMADDWD     Y0, acc, acc; \
	VPBROADCASTD (off+16)(AX), Y14; \
	VPMADDWD     Y1, Y14, Y14; \
	VPADDD       Y14, acc, acc; \
	VPBROADCASTD (off+32)(AX), Y14; \
	VPMADDWD     Y2, Y14, Y14; \
	VPADDD       Y14, acc, acc; \
	VPBROADCASTD (off+48)(AX), Y14; \
	VPMADDWD     Y3, Y14, Y14; \
	VPADDD       Y14, acc, acc; \
	VPADDD       Y9, acc, acc; \
	VPSRAD       $12, acc, acc

// YFIT is FIT into Y10.
#define YFIT(acc) \
	VPADDD Y11, acc, Y8; \
	VPOR   Y8, Y10, Y10

// YPACK leaves column vectors j (Y12) and j+1 (Y13) in order in Y12.
#define YPACK \
	VPACKSSDW Y13, Y12, Y12; \
	VPERMQ    $0xD8, Y12, Y12

// YROWSTEP and YCOLSTEP are ROWSTEP and COLSTEP for columns j and j+1.
#define YROWSTEP(j) \
	YDOT(j*64, Y12); \
	YDOT(j*64+64, Y13); \
	YFIT(Y12); \
	YFIT(Y13); \
	YPACK; \
	VMOVDQU Y12, (j*16)(SP)

#define YCOLSTEP(j) \
	YDOT(j*64, Y12); \
	YDOT(j*64+64, Y13); \
	YPACK; \
	VMOVDQU Y12, (j*16)(DI)

TEXT ·dct2dAVX2(SB), NOSPLIT, $128-25
	MOVQ         src+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         m+16(FP), AX
	MOVL         $2048, BX
	VMOVD        BX, X9
	VPBROADCASTD X9, Y9
	MOVL         $32768, BX
	VMOVD        BX, X11
	VPBROADCASTD X11, Y11
	VPXOR        Y10, Y10, Y10

	YLOADROWS(SI)
	YROWSTEP(0)
	YROWSTEP(2)
	YROWSTEP(4)
	YROWSTEP(6)

	// Decline unless the high half of every fit dword is zero.
	VPSRLD    $16, Y10, Y10
	VPXOR     Y8, Y8, Y8
	VPCMPEQD  Y8, Y10, Y10
	VPMOVMSKB Y10, BX
	CMPL      BX, $0xFFFFFFFF
	SETEQ     ret+24(FP)
	JNE       ydone

	YLOADROWS(SP)
	YCOLSTEP(0)
	YCOLSTEP(2)
	YCOLSTEP(4)
	YCOLSTEP(6)

ydone:
	VZEROUPPER
	RET
