# Eclipse reproduction — build / verify / bench entry points.
#
#   make check   vet + build + full test suite + race-detector pass
#   make lint    vet + gofmt formatting check (no test run)
#   make test    full test suite only (tier-1; includes the benchmark
#                rig's own tests via TestBenchmarkRig)
#   make race    the full test suite under the race detector, plus the
#                segment-parallel, decode-width, task-group/gate,
#                transcode and both cache tiers' LRU tests again at
#                GOMAXPROCS=4 (real parallelism for every width > 1 path,
#                for parked siblings, for a transcode's span tasks and for
#                the single-lock cache)
#   make fuzz-smoke  a few seconds of each media-layer fuzzer — the CI
#                    guard that the corpus-reachable code stays panic-free
#                    (includes the parallel/serial decode-parity fuzzer,
#                    the motion-search/raster-reference parity fuzzer
#                    and the one-span and span-count span-engine/two-phase
#                    transcode-parity fuzzers)
#   make bench-smoke single-iteration run of every Go benchmark, so CI
#                    catches harness breakage cheaply
#   make bench   every Go benchmark with allocation stats, for local
#                profiling only — performance claims come from the rig
#                in benchmark/ (see benchmark/README.md), not from here

GO ?= go

.PHONY: check lint vet build test race fuzz-smoke bench-smoke bench

check: vet build test race

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -run 'Segment|DecodeWorkers|TaskGroup|Transcode|LRU|L1|Cache' \
		./internal/media ./internal/serve ./internal/slab ./internal/cluster

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBitReaderRoundTrip -fuzztime=5s ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzHuffDecode -fuzztime=5s ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzDecodeParallelParity -fuzztime=5s ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzMotionSearchParity -fuzztime=5s ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzCacheKeyCanonical -fuzztime=5s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzTranscodeFusedParity -fuzztime=5s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzTranscodeSegmentedParity -fuzztime=5s ./internal/serve

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...
