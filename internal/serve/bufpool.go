package serve

import "eclipse/internal/slab"

// Response-body buffer pool. Decode responses are large (frames × W×H
// bytes of raw luma) and short-lived, so NewDecodeJob draws them from a
// size-classed pool — the same power-of-two slab scheme as the result
// cache's entry bodies — instead of allocating a fresh slice per
// request.
//
// Ownership rules (who may call respBufs.Put):
//
//   - The job body owns the buffer until it returns it as Result.Body.
//   - On the UNCACHED tail (submitAndWait) exactly one handler writes
//     the body and nothing else retains it, so the handler recycles it
//     after the write.
//   - On the CACHED tail the buffer must NOT be recycled: cache.put
//     copies the body into the cache's own slab (the cache never aliases
//     it), but singleflight hands the leader's Result — same Body slice —
//     to every collapsed follower, and followers may still be writing it
//     out after the leader finishes. Those bodies are left to the GC.
//
// Violating the rule hands the pool a buffer another handler is reading;
// a later Get would then scribble over an in-flight response. Get does
// NOT zero the buffer (callers must overwrite all n bytes); Put drops
// buffers with non-power-of-two or oversized capacity silently, so it is
// safe to feed it any Result.Body whose provenance satisfies the rule.
var respBufs slab.Pool
