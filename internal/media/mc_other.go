//go:build !amd64

package media

// Off amd64 the MC kernels are their portable Go bodies.

func reconstruct(dst []byte, stride int, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	reconstructGo(dst, stride, pred, pstride, blocks)
}

func residual(cur *MBPixels, pred []byte, pstride int, blocks *[BlocksPerMB]Block) {
	residualGo(cur, pred, pstride, blocks)
}

func average(dst *MBPixels, a []byte, astride int, b []byte, bstride int) {
	averageGo(dst, a, astride, b, bstride)
}
