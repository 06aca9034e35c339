package serve

import "eclipse/internal/slab"

// Request- and response-body buffer pools: the same power-of-two slab
// scheme as the result cache's entry bodies, so a served request reads
// its payload and builds its decode response in recycled slabs instead
// of fresh slices.
//
// Ownership (who may call Put, and when):
//
//   - reqBufs: Accept, the front end both tiers share, draws the request
//     body through the one capped reader (slab.Pool.ReadCapped), and the
//     media handler it hands the body to is its sole owner and returns it
//     once dispatch has returned. Nothing reads the body after that: dispatch either never
//     runs the job (a 304, a cache hit, a collapsed follower, a rejected
//     admission) or waits on j.Done(), which closes only after every
//     unit of the job has returned and retired (Job.retire); Cache.Fetch
//     runs the leader's job on the handler's own goroutine; and no
//     Result aliases the body, because an encode copies it into pool
//     frames and decode and transcode build new output. A failed read
//     returns the buffer itself.
//   - respBufs: a decode job's body draws its response and owns it until
//     it returns it as Result.Body. On the uncached tail
//     (submitAndWait) exactly one handler writes the body and nothing
//     else retains it, so that handler returns it after the write. On
//     the cached tail it is never returned: cache.put copies the body
//     into the cache's own slab, but singleflight hands the leader's
//     Result, the same Body slice, to every collapsed follower, and
//     followers may still be writing it after the leader finishes.
//     Those bodies are left to the GC.
//
// Putting a buffer anyone else still reads lets a later Get scribble over
// it: an in-flight job would decode another request's bytes, or a
// response would carry them. Get does NOT zero the buffer (callers
// overwrite all n bytes); Put silently drops buffers of non-power-of-two
// or oversized capacity, so any buffer whose provenance satisfies the
// rules above is safe to hand it.
var reqBufs, respBufs slab.Pool
