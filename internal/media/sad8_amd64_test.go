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

// dispatchAVX2 returns a sad8Body.use that sets useAVX2 to on.
func dispatchAVX2(on bool) func() func() {
	return func() func() {
		saved := useAVX2
		useAVX2 = on
		return func() { useAVX2 = saved }
	}
}

func init() {
	avx2 := sad8Body{name: "avx2", kernel: asmSAD8(sad8AVX2), use: dispatchAVX2(true)}
	if !hasAVX2() {
		avx2.skip = "the CPUID probe finds no AVX2 on this host"
	}
	sad8Bodies = []sad8Body{{name: "sse2", kernel: asmSAD8(sad8SSE2), use: dispatchAVX2(false)}, avx2}
}
