package eclipse

// Additional instances of the Eclipse template, demonstrating the
// scalability story of paper Section 2.3: the same coprocessor and shell
// designs recur across instances that differ in memory sizing, cache
// provisioning, and how many physical coprocessors the Kahn functions
// are folded onto.

// Lite returns a cost-reduced instance: half the stream memory, minimal
// shell caches, no prefetching. Applications map unchanged; they just
// run slower — the template guarantees functional equivalence.
func Lite() Arch {
	a := Fig8()
	a.SRAM.Size = 16 * 1024
	a.Shell.ReadCacheLines = 4
	a.Shell.WriteCacheLines = 4
	a.Shell.PrefetchDepth = 0
	return a
}

// HD returns a scaled-up instance for higher-rate workloads: four times
// the stream memory, larger caches, deeper prefetch, and a faster
// putspace network.
func HD() Arch {
	a := Fig8()
	a.SRAM.Size = 128 * 1024
	a.Shell.ReadCacheLines = 64
	a.Shell.WriteCacheLines = 64
	a.Shell.PrefetchDepth = 4
	a.Shell.MsgLatency = 2
	return a
}

// LiteDecodeMapping folds the whole decode pipeline onto two physical
// resources: one "xform" coprocessor time-sharing the VLD, RLSQ, and DCT
// functions, and the MC/ME coprocessor (which keeps its system-bus
// connection); software tasks stay on the CPU. This is the paper's
// medium-grain flexibility taken to its cheap extreme — fewer
// coprocessors, same application graphs, same outputs.
var LiteDecodeMapping = map[string]string{
	"bitsrc": "cpu",
	"vld":    "xform",
	"rlsq":   "xform",
	"idct":   "xform",
	"mc":     "mc",
	"sink":   "cpu",
}
