//go:build !amd64

package media

// sad8 is the eight-candidate kernel; off amd64 it is the portable loop.
func sad8(cur *MBPixels, ref []byte, stride, earlyOut int, out *[8]int32) int32 {
	return sad8Go(cur, ref, stride, earlyOut, out)
}
