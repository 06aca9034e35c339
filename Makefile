# Eclipse reproduction — build / verify / bench entry points.
#
#   make check   vet + build + full test suite + race-detector pass +
#                the assembly mutation check
#   make lint    vet + gofmt formatting check (no test run)
#   make vet     go vet for the host and again for GOARCH=arm64 and
#                GOARCH=386, so the portable SAD, transform and MC bodies
#                behind !amd64 are compiled and vetted on every check (the
#                amd64 pass runs asmdecl over the SSE2 and AVX2 PSADBW
#                kernels, the CPUID probe, and the SSE2 and AVX2 PMADDWD
#                and MC kernels' frame and argument sizes); then the media tests
#                under GOARCH=386, whose binaries run on an amd64 host, so
#                the portable bodies also run, golden hashes included; the
#                run/level event table and the reciprocal quantiser, which
#                are portable Go, run there too, so the quantiser's 64-bit
#                products are checked exhaustively on a 32-bit target
#   make test    full test suite only (tier-1; includes the benchmark
#                rig's own tests via TestBenchmarkRig)
#   make race    the full test suite under the race detector, plus the
#                segment-parallel, two-tenant, unit/gate (task group and
#                span units), job accounting before Done, transcode,
#                concurrent stream-encoder, both
#                cache tiers' LRU tests, the flight table's storm test
#                (internal/flight) and the gateway's attempt-loop
#                tests (retry, pushback, mid-stream, timeout, stalled
#                primary, storm) again at GOMAXPROCS=4 (real parallelism
#                for parked sibling units, for a transcode's span units
#                on two workers, for two tenants' jobs on two workers, for
#                encoders running side by side, for the single-lock cache,
#                for leaders and followers on one flight and for the
#                proxy's attempt loop), and the pooled
#                request-body reuse tests and the span-unit tests ten
#                times at GOMAXPROCS=4 (two tenants' bodies returned to
#                the pool while other jobs, a cancelled transcode and a
#                collapsed flight still run; a gateway body the upstream
#                still reads after the handler has returned; a hard stop
#                with a transcode's spans still queued, whose pick order
#                once depended on timing)
#   make fuzz-smoke  a few seconds of each media-layer fuzzer — the CI
#                    guard that the corpus-reachable code stays panic-free;
#                    each new input is minimised for at most 100 runs (go's
#                    default is 60 s, which a whole-stream fuzzer spent
#                    minimising its first new input instead of exploring),
#                    and a failing input is still reported and written to
#                    testdata/fuzz
#                    (includes the run/level event-table/oracle parity fuzzer,
#                    the fused-parse/two-pass (VLD then RLSQ) parity fuzzer,
#                    the batch/streaming decode-parity fuzzer,
#                    the four-decoder (batch, streaming, functional KPN,
#                    timed Fig. 8) agreement fuzzer on small streams,
#                    the GOP-index/decoder agreement fuzzer,
#                    the motion-search/raster-reference parity fuzzer
#                    (on the frame and on the encoder's padded plane),
#                    the PSADBW/SWAR SAD-kernel parity fuzzer and its
#                    eight-candidate (search grid) counterpart over each
#                    body the host runs (SSE2, and AVX2 where present),
#                    the transform/matrix-product, transform-kernel/
#                    butterfly (each body the host runs) and RLSQ
#                    scatter/three-step parity fuzzer, the MC
#                    kernel/Go-body, clamped-fetch/Frame.At and
#                    prediction-view/copy-path parity fuzzer and the
#                    one-span and span-count span-engine/two-phase
#                    transcode-parity fuzzers)
#   make mutate  applies each mutation listed in
#                internal/media/testdata/asm_mutations.txt (the SSE2
#                kernels, the AVX2 search-grid and transform kernels and
#                their //go:noescape directives) to a temporary copy of the
#                module, one at a time, and runs the test named beside it,
#                which must fail; a comment-only control must pass, an
#                entry whose old text does not occur exactly once fails the
#                run, and an entry whose subtest the host skips (AVX2 on a
#                host without it) is reported as skipped (about a minute;
#                not part of tier-1)
#   make bench-smoke single-iteration run of every Go benchmark, so CI
#                    catches harness breakage cheaply
#   make bench   every Go benchmark with allocation stats, for local
#                profiling only — performance claims come from the rig
#                in benchmark/ (see benchmark/README.md), not from here
#   make experiments  rerun every eclipse-bench experiment and rewrite its
#                     block in EXPERIMENTS.md (make test fails while a
#                     block differs from what eclipse-bench prints)

GO ?= go

.PHONY: check lint vet build test race fuzz-smoke mutate bench-smoke bench experiments

check: vet build test race mutate

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/media

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -run 'Segment|TwoTenant|TaskGroup|SpanUnits|DoneAfterAccounting|Transcode|StreamEncoder|LRU|L1|Cache|Retry|Pushback|MidStream|Timeout|Stalled|Storm' \
		./internal/media ./internal/serve ./internal/slab ./internal/cluster ./internal/flight
	GOMAXPROCS=4 $(GO) test -race -count=10 -run 'RequestBodyReuse|GatewayBodyLifetime|SpanUnits|TranscodeForgedGOPHeader|TranscodeSegmentedFaultOrder' ./internal/serve ./internal/cluster

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBitReaderRoundTrip -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzHuffDecode -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzRunLevelParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzFusedParseParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzDecodeParallelParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzDecodersAgree -fuzztime=5s -fuzzminimizetime=100x .
	$(GO) test -run=NONE -fuzz=FuzzIndexDecodeAgree -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzMotionSearchParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzSADKernelParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzSAD8Parity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzTransformParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzMCKernelParity -fuzztime=5s -fuzzminimizetime=100x ./internal/media
	$(GO) test -run=NONE -fuzz=FuzzCacheKeyCanonical -fuzztime=5s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzTranscodeFusedParity -fuzztime=5s -fuzzminimizetime=100x ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzTranscodeSegmentedParity -fuzztime=5s -fuzzminimizetime=100x ./internal/serve

mutate:
	sh internal/media/testdata/mutate.sh

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

experiments:
	$(GO) test ./cmd/eclipse-bench -run TestExperimentsDoc -update
