//go:build !amd64

package media

// kernelMismatch has no kernel to check off amd64, where IDCT and FDCT are
// the Go bodies.
func kernelMismatch(*Block) string { return "" }
