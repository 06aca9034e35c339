#include "textflag.h"

// func sad8SSE2(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)
//
// Eight candidates per row: the cur row is loaded once into X0, and each
// of the eight ref loads at ref+k, k = 0…7, gets one PSADBW against it.
// PSADBW leaves a 16-bit sum in each 64-bit half; odd candidates are
// shifted up 32 bits so that candidates 2i and 2i+1 share accumulator
// X3+i as dwords [lo 2i, lo 2i+1, hi 2i, hi 2i+1]. No dword can carry: a
// half-row sums at most 8·255, 16 rows 32 640. After every fourth row
// the halves are folded into X7 (sums 0…3) and X9 (sums 4…7) and stored
// to out; after rows 4, 8 and 12 the kernel returns when every sum is
// greater than earlyOut (X11, broadcast; the caller clamps it to int32).
TEXT ·sad8SSE2(SB), NOSPLIT, $0-40
	MOVQ   cur+0(FP), SI
	MOVQ   ref+8(FP), DI
	MOVQ   stride+16(FP), DX
	MOVQ   earlyOut+24(FP), R8
	MOVQ   out+32(FP), R9
	MOVQ   R8, X11
	PSHUFD $0, X11, X11
	PXOR   X3, X3
	PXOR   X4, X4
	PXOR   X5, X5
	PXOR   X6, X6
	MOVQ   $4, CX

block:
	MOVQ $4, BX

row:
	MOVOU  (SI), X0
	MOVOU  0(DI), X1
	PSADBW X0, X1
	MOVOU  1(DI), X2
	PSADBW X0, X2
	PSLLQ  $32, X2
	PADDQ  X1, X3
	PADDQ  X2, X3
	MOVOU  2(DI), X1
	PSADBW X0, X1
	MOVOU  3(DI), X2
	PSADBW X0, X2
	PSLLQ  $32, X2
	PADDQ  X1, X4
	PADDQ  X2, X4
	MOVOU  4(DI), X1
	PSADBW X0, X1
	MOVOU  5(DI), X2
	PSADBW X0, X2
	PSLLQ  $32, X2
	PADDQ  X1, X5
	PADDQ  X2, X5
	MOVOU  6(DI), X1
	PSADBW X0, X1
	MOVOU  7(DI), X2
	PSADBW X0, X2
	PSLLQ  $32, X2
	PADDQ  X1, X6
	PADDQ  X2, X6
	ADDQ   $16, SI
	ADDQ   DX, DI
	DECQ   BX
	JNZ    row

	MOVO       X3, X7
	PUNPCKLQDQ X4, X7
	MOVO       X3, X8
	PUNPCKHQDQ X4, X8
	PADDL      X8, X7
	MOVO       X5, X9
	PUNPCKLQDQ X6, X9
	MOVO       X5, X10
	PUNPCKHQDQ X6, X10
	PADDL      X10, X9
	MOVOU      X7, 0(R9)
	MOVOU      X9, 16(R9)
	DECQ       CX
	JZ         done
	PCMPGTL    X11, X7
	PCMPGTL    X11, X9
	PAND       X9, X7
	PMOVMSKB   X7, AX
	CMPL       AX, $0xFFFF
	JNE        block

done:
	RET
