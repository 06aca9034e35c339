#include "textflag.h"

// func sadRowsSSE2(cur *MBPixels, ref *byte, stride, earlyOut int) int
//
// One row per iteration: PSADBW sums |cur−ref| over each 8-byte half of
// the 16-byte row into the low word of its 64-bit lane, PSHUFD+PADDQ fold
// the two lanes, and the row total joins the running sum in AX. The sum
// is compared with earlyOut after every row, as in sadRowsSWAR.
TEXT ·sadRowsSSE2(SB), NOSPLIT, $0-40
	MOVQ cur+0(FP), SI
	MOVQ ref+8(FP), DI
	MOVQ stride+16(FP), DX
	MOVQ earlyOut+24(FP), R8
	XORQ AX, AX
	MOVQ $16, CX

row:
	MOVOU  (SI), X0
	MOVOU  (DI), X1
	PSADBW X1, X0
	PSHUFD $0x4E, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, BX
	ADDQ   BX, AX
	CMPQ   AX, R8
	JGT    done
	ADDQ   $16, SI
	ADDQ   DX, DI
	DECQ   CX
	JNZ    row

done:
	MOVQ AX, ret+32(FP)
	RET
