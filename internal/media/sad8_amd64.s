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

// func sad8AVX2(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)
//
// sad8SSE2 two rows at a time: Y0 holds cur rows j and j+1 (one 32-byte
// load), and candidate k's ref rows j and j+1 fill the low and high lanes
// of one register (VMOVDQU at ref+k, VINSERTI128 at ref+k+stride), so one
// VPSADBW scores both rows. Each lane of the accumulators Y3…Y6 is packed
// as sad8SSE2's X3…X6. After every fourth row both lanes are folded as in
// sad8SSE2, and the lanes — the partial sums over even and over odd rows —
// are added into Y8, sums 0…7, which is stored to out; after rows 4, 8
// and 12 the kernel returns when every sum is greater than earlyOut (Y11,
// broadcast). The caller checks for AVX2 (hasAVX2).
TEXT ·sad8AVX2(SB), NOSPLIT, $0-40
	MOVQ         cur+0(FP), SI
	MOVQ         ref+8(FP), DI
	MOVQ         stride+16(FP), DX
	MOVQ         earlyOut+24(FP), R8
	MOVQ         out+32(FP), R9
	VMOVQ        R8, X11
	VPBROADCASTD X11, Y11
	VPXOR        Y3, Y3, Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	VPXOR        Y6, Y6, Y6
	MOVQ         $4, CX

yblock:
	MOVQ $2, BX

ypair:
	VMOVDQU     (SI), Y0
	VMOVDQU     0(DI), X1
	VINSERTI128 $1, 0(DI)(DX*1), Y1, Y1
	VPSADBW     Y0, Y1, Y1
	VMOVDQU     1(DI), X2
	VINSERTI128 $1, 1(DI)(DX*1), Y2, Y2
	VPSADBW     Y0, Y2, Y2
	VPSLLQ      $32, Y2, Y2
	VPADDQ      Y1, Y3, Y3
	VPADDQ      Y2, Y3, Y3
	VMOVDQU     2(DI), X1
	VINSERTI128 $1, 2(DI)(DX*1), Y1, Y1
	VPSADBW     Y0, Y1, Y1
	VMOVDQU     3(DI), X2
	VINSERTI128 $1, 3(DI)(DX*1), Y2, Y2
	VPSADBW     Y0, Y2, Y2
	VPSLLQ      $32, Y2, Y2
	VPADDQ      Y1, Y4, Y4
	VPADDQ      Y2, Y4, Y4
	VMOVDQU     4(DI), X1
	VINSERTI128 $1, 4(DI)(DX*1), Y1, Y1
	VPSADBW     Y0, Y1, Y1
	VMOVDQU     5(DI), X2
	VINSERTI128 $1, 5(DI)(DX*1), Y2, Y2
	VPSADBW     Y0, Y2, Y2
	VPSLLQ      $32, Y2, Y2
	VPADDQ      Y1, Y5, Y5
	VPADDQ      Y2, Y5, Y5
	VMOVDQU     6(DI), X1
	VINSERTI128 $1, 6(DI)(DX*1), Y1, Y1
	VPSADBW     Y0, Y1, Y1
	VMOVDQU     7(DI), X2
	VINSERTI128 $1, 7(DI)(DX*1), Y2, Y2
	VPSADBW     Y0, Y2, Y2
	VPSLLQ      $32, Y2, Y2
	VPADDQ      Y1, Y6, Y6
	VPADDQ      Y2, Y6, Y6
	ADDQ        $32, SI
	LEAQ        (DI)(DX*2), DI
	DECQ        BX
	JNZ         ypair

	VPUNPCKLQDQ Y4, Y3, Y7
	VPUNPCKHQDQ Y4, Y3, Y8
	VPADDD      Y8, Y7, Y7
	VPUNPCKLQDQ Y6, Y5, Y9
	VPUNPCKHQDQ Y6, Y5, Y10
	VPADDD      Y10, Y9, Y9
	VPERM2I128  $0x20, Y9, Y7, Y8
	VPERM2I128  $0x31, Y9, Y7, Y10
	VPADDD      Y10, Y8, Y8
	VMOVDQU     Y8, (R9)
	DECQ        CX
	JZ          ydone
	VPCMPGTD    Y11, Y8, Y8
	VPMOVMSKB   Y8, AX
	CMPL        AX, $-1
	JNE         yblock

ydone:
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// Whether the CPU and the OS support AVX2: CPUID leaf 7 exists, CPUID.1:ECX
// has OSXSAVE (bit 27) and AVX (bit 28), XCR0 enables the XMM and YMM
// state (bits 1 and 2), and CPUID.(7,0):EBX has AVX2 (bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    noavx2
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    noavx2
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noavx2
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	SETCS  ret+0(FP)

noavx2:
	RET
