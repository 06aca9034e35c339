package eclipse_test

import (
	"fmt"

	"eclipse"
)

// Encode a short synthetic video with the reference encoder, decode the
// bitstream on a cycle-accurate Eclipse instance (the paper's Figure 8
// MPEG subsystem) and check the output bit-exactly against the reference
// decoder and the functional Kahn-network execution. sys.WriteReport
// would then print the Figure 9 views (see the fig9 block of
// EXPERIMENTS.md).
func ExampleNewSystem() {
	// 1. A workload: 8 frames of synthetic video, MPEG-style GOP.
	const w, h = 96, 80
	frames := eclipse.GenerateVideo(eclipse.DefaultSource(w, h), 8)
	stream, _, stats, err := eclipse.Encode(eclipse.DefaultCodec(w, h), frames)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("encoded %d frames into %d bytes (%d bits)\n", len(frames), len(stream), stats.TotalBits())

	// 2. An Eclipse instance, with the decoder process network mapped
	// onto its coprocessors, simulated to completion.
	sys := eclipse.NewSystem(eclipse.Fig8())
	app, err := sys.AddDecodeApp("dec", stream, eclipse.DecodeOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	cycles, err := sys.Run(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("decoded on the Eclipse instance in %d cycles (%.2f ms at 150 MHz)\n",
		cycles, float64(cycles)/150e6*1e3)

	// 3. Kahn determinism across execution engines: the frames are
	// bit-exact with the reference decoder and with the functional
	// (untimed goroutine) execution of the same network.
	if err := app.VerifyAgainstReference(stream); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("output verified bit-exact against the reference decoder")
	fun, err := eclipse.RunFunctionalDecode(stream, eclipse.DefaultDecodeBuffers())
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, f := range app.Frames() {
		if !f.Equal(fun[i]) {
			fmt.Printf("frame %d differs between engines\n", i)
			return
		}
	}
	fmt.Println("output also matches the functional Kahn-network execution")
	// Output:
	// encoded 8 frames into 11643 bytes (93061 bits)
	// decoded on the Eclipse instance in 100496 cycles (0.67 ms at 150 MHz)
	// output verified bit-exact against the reference decoder
	// output also matches the functional Kahn-network execution
}
