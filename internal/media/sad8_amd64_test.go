package media

import "slices"

// asmSAD8 is sad8 with body in place of the dispatch.
func asmSAD8(body func(cur *MBPixels, ref *byte, stride, earlyOut int, out *[8]int32)) sad8Kernel {
	return func(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
		_ = ref[15*stride+22]
		body(cur, &ref[0], stride, min(max(earlyOut, -1), 1<<16), out)
		return slices.Min(out[:])
	}
}

// asmDCT2D is dct2d with body in place of the dispatch and the table
// named by direction.
func asmDCT2D(body func(src, dst *Block, m *dctPassTab) bool) dctKernel {
	return func(src, dst *Block, forward bool) bool {
		if forward {
			return body(src, dst, &fdctPass)
		}
		return body(src, dst, &idctPass)
	}
}

// dispatchAVX2 returns a kernelBody.use that sets useAVX2 to on.
func dispatchAVX2(on bool) func() func() {
	return func() func() {
		saved := useAVX2
		useAVX2 = on
		return func() { useAVX2 = saved }
	}
}

func init() {
	avx2 := kernelBody{name: "avx2", sad8: asmSAD8(sad8AVX2), dct2d: asmDCT2D(dct2dAVX2), use: dispatchAVX2(true)}
	if !hasAVX2() {
		avx2.skip = "the CPUID probe finds no AVX2 on this host"
	}
	kernelBodies = []kernelBody{{name: "sse2", sad8: asmSAD8(sad8SSE2), dct2d: asmDCT2D(dct2dSSE2), use: dispatchAVX2(false)}, avx2}
}
