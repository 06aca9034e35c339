//go:build !amd64

package media

// sadRows is the one absolute-difference kernel; off amd64 it is the
// portable SWAR loop.
func sadRows(cur *MBPixels, ref []byte, stride, earlyOut int) int {
	return sadRowsSWAR(cur, ref, stride, earlyOut)
}
