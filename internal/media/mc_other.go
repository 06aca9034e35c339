//go:build !amd64

package media

// Off amd64 the MC kernels are their portable Go bodies.

func reconstruct(dst []byte, stride int, pred *MBPixels, blocks *[BlocksPerMB]Block) {
	reconstructGo(dst, stride, pred, blocks)
}

func residual(cur, pred *MBPixels, blocks *[BlocksPerMB]Block) { residualGo(cur, pred, blocks) }

func average(dst, a, b *MBPixels) { averageGo(dst, a, b) }
