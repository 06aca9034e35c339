//go:build !amd64

package media

// FDCT computes the forward 8×8 DCT of src into dst (row-major); off
// amd64 it is the portable butterfly body fdctGo.
func FDCT(src, dst *Block) { fdctGo(src, dst) }

// IDCT computes the inverse 8×8 DCT of src into dst (row-major), the one
// inverse of the encoder's reconstruction loop and the decoder; off amd64
// it is the portable butterfly body idctGo.
func IDCT(src, dst *Block) { idctGo(src, dst) }
