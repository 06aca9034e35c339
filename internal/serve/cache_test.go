package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipse/internal/media"
)

// TestCacheKeyDistinct pins the injectivity the keying schema promises:
// any difference in kind, parameter, or payload must change the key.
func TestCacheKeyDistinct(t *testing.T) {
	stream := []byte("fake-bitstream-bytes")
	cfg := media.DefaultCodec(48, 32)
	keys := map[CacheKey]string{}
	add := func(name string, k CacheKey) {
		if prev, ok := keys[k]; ok {
			t.Fatalf("key collision: %s vs %s", prev, name)
		}
		keys[k] = name
	}
	add("decode", DecodeKey(stream))
	add("decode-other-stream", DecodeKey([]byte("fake-bitstream-bytes2")))
	add("transcode-q4", TranscodeKey(4, stream))
	add("transcode-q5", TranscodeKey(5, stream))
	add("encode", EncodeKey(cfg, stream))
	cq := cfg
	cq.Q++
	add("encode-q", EncodeKey(cq, stream))
	ch := cfg
	ch.HalfPel = !ch.HalfPel
	add("encode-halfpel", EncodeKey(ch, stream))
	cg := cfg
	cg.GOPM++
	add("encode-gopm", EncodeKey(cg, stream))

	if DecodeKey(stream) != DecodeKey(append([]byte(nil), stream...)) {
		t.Fatal("identical inputs must produce identical keys")
	}
}

// TestETagMatches covers the If-None-Match grammar against the key's
// strong tag.
func TestETagMatches(t *testing.T) {
	k := DecodeKey([]byte("x"))
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{k.ETag(), true},
		{"*", true},
		{`"nope", ` + k.ETag(), true},
		{"W/" + k.ETag(), true},
		{`"nope"`, false},
		{"", false},
	} {
		if got := ETagMatches(tc.header, k); got != tc.want {
			t.Errorf("ETagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestCacheLRUEviction fills the cache past its budget and checks the
// oldest entries leave first, byte accounting stays exact, and the
// counters attribute evictions to the filling tenant.
func TestCacheLRUEviction(t *testing.T) {
	const bodyLen = 1000
	entrySize := int64(bodyLen + entryOverhead)
	// Budget for exactly 3 entries.
	c := NewCache(3 * entrySize)
	keys := make([]CacheKey, 5)
	for i := range keys {
		keys[i] = DecodeKey([]byte(fmt.Sprintf("key-%d", i)))
	}
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, bodyLen) }
	for i := 0; i < 4; i++ {
		c.put(keys[i], c.tstats("alice"), Result{Body: body(i)})
	}
	// 4 fills into a 3-entry cache: keys[0] (LRU tail) must be gone.
	if _, ok := c.lookup(keys[0], c.tstats("alice"), false); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if got := c.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got, _ := c.lru.Resident(); got != 3*entrySize {
		t.Fatalf("resident bytes %d, want %d", got, 3*entrySize)
	}
	// Touch keys[1] so keys[2] becomes the tail, then overflow again.
	if e, ok := c.lookup(keys[1], c.tstats("alice"), false); !ok {
		t.Fatal("keys[1] should be resident")
	} else {
		c.lru.Release(e)
	}
	c.put(keys[4], c.tstats("bob"), Result{Body: body(4)})
	if _, ok := c.lookup(keys[2], c.tstats("alice"), false); ok {
		t.Fatal("LRU order ignored the recency touch")
	}
	if e, ok := c.lookup(keys[1], c.tstats("alice"), false); !ok {
		t.Fatal("recently touched entry evicted")
	} else {
		c.lru.Release(e)
	}
	snap := c.Snapshot()
	if snap.Entries != 3 || snap.Evictions != 2 {
		t.Fatalf("snapshot entries=%d evictions=%d, want 3/2", snap.Entries, snap.Evictions)
	}
	var alice *CacheTenantSnapshot
	for i := range snap.Tenants {
		if snap.Tenants[i].Name == "alice" {
			alice = &snap.Tenants[i]
		}
	}
	if alice == nil || alice.Evictions != 2 {
		t.Fatalf("alice eviction attribution: %+v", alice)
	}
}

// TestCacheTooLarge checks oversized results are skipped, not force-fed
// through a cache wipe.
func TestCacheTooLarge(t *testing.T) {
	c := NewCache(1024)
	k := DecodeKey([]byte("big"))
	c.put(k, c.tstats("a"), Result{Body: make([]byte, 4096)})
	if _, ok := c.lookup(k, c.tstats("a"), false); ok {
		t.Fatal("oversized entry was cached")
	}
	if c.tooLarge.Load() != 1 {
		t.Fatal("too-large fill not counted")
	}
}

// flightWaiters polls the key's flight until it has n parked followers;
// tests use it to make promotion scenarios deterministic.
func (c *Cache) flightWaiters(key CacheKey, n int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w, ok := c.flights.Waiters(key); ok && w >= n {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return false
}

// TestCacheStormSingleRun is the collapse guarantee: N concurrent
// fetches of one cold key execute the runner exactly once, and every
// request gets the full body.
func TestCacheStormSingleRun(t *testing.T) {
	const n = 64
	c := NewCache(1 << 20)
	key := DecodeKey([]byte("storm"))
	want := bytes.Repeat([]byte{0xAB}, 4096)
	var runs atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, release, _, err := c.Fetch(context.Background(), key, "t", func() (Result, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond) // hold the flight open
				return Result{Body: want}, nil
			})
			if err != nil {
				errs <- err
				return
			}
			defer release()
			if !bytes.Equal(res.Body, want) {
				errs <- errors.New("wrong body")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times, want exactly 1", got)
	}
	snap := c.Snapshot()
	if snap.Misses+snap.Hits != n || snap.Misses < 1 {
		t.Fatalf("hits %d + misses %d != %d requests", snap.Hits, snap.Misses, n)
	}
	if snap.Collapsed+snap.Hits != n-1 {
		t.Fatalf("collapsed %d + hits %d, want %d non-leaders", snap.Collapsed, snap.Hits, n-1)
	}
}

// TestCacheLeaderFailurePromotion kills the leader with a
// leader-specific error while followers are parked: exactly one
// follower must be promoted, rerun the work, and feed everyone else.
func TestCacheLeaderFailurePromotion(t *testing.T) {
	const n = 8
	c := NewCache(1 << 20)
	key := DecodeKey([]byte("promote"))
	want := []byte("recovered")
	var runs atomic.Int32
	run := func() (Result, error) {
		if runs.Add(1) == 1 {
			// First leader: wait for all followers to park, then die the
			// way a disconnected client does.
			if !c.flightWaiters(key, n-1) {
				return Result{}, errors.New("followers never parked")
			}
			return Result{}, context.Canceled
		}
		return Result{Body: want}, nil
	}
	var wg sync.WaitGroup
	var canceled, served atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, release, _, err := c.Fetch(context.Background(), key, "t", run)
			switch {
			case errors.Is(err, context.Canceled):
				canceled.Add(1)
			case err != nil:
				t.Error(err)
			default:
				defer release()
				if !bytes.Equal(res.Body, want) {
					t.Error("wrong body after promotion")
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if canceled.Load() != 1 || served.Load() != n-1 {
		t.Fatalf("canceled=%d served=%d, want 1/%d", canceled.Load(), served.Load(), n-1)
	}
	if runs.Load() != 2 {
		t.Fatalf("runner executed %d times, want 2 (failed leader + promoted follower)", runs.Load())
	}
	if c.promotions.Load() != 1 {
		t.Fatalf("promotions = %d, want 1", c.promotions.Load())
	}
}

// TestCacheDeterministicErrorBroadcast checks that an input-determined
// failure (a malformed bitstream fails for every requester) is
// broadcast to all followers instead of promoting them into rerunning
// doomed work.
func TestCacheDeterministicErrorBroadcast(t *testing.T) {
	const n = 8
	c := NewCache(1 << 20)
	key := DecodeKey([]byte("bad"))
	wantErr := fmt.Errorf("parse: %w", media.ErrBitstream)
	var runs atomic.Int32
	run := func() (Result, error) {
		runs.Add(1)
		if !c.flightWaiters(key, n-1) {
			return Result{}, errors.New("followers never parked")
		}
		return Result{}, wantErr
	}
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := c.Fetch(context.Background(), key, "t", run)
			if errors.Is(err, media.ErrBitstream) {
				failed.Add(1)
			} else {
				t.Errorf("got %v, want bitstream error", err)
			}
		}()
	}
	wg.Wait()
	if failed.Load() != n || runs.Load() != 1 {
		t.Fatalf("failed=%d runs=%d, want %d/1", failed.Load(), runs.Load(), n)
	}
	if _, ok := c.lookup(key, c.tstats("t"), false); ok {
		t.Fatal("failed result must not be cached")
	}
}

// TestCacheFollowerContextDeath checks a follower whose own context
// dies leaves the flight without stranding the key, and the last leaver
// of a leaderless flight retires it.
func TestCacheFollowerContextDeath(t *testing.T) {
	c := NewCache(1 << 20)
	key := DecodeKey([]byte("leave"))
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // leader: blocks until released
		defer wg.Done()
		_, rel, _, err := c.Fetch(context.Background(), key, "t", func() (Result, error) {
			<-release
			return Result{Body: []byte("ok")}, nil
		})
		if err != nil {
			t.Error(err)
		} else {
			rel()
		}
	}()
	go func() { // follower: cancelled while parked
		defer wg.Done()
		if !c.flightWaiters(key, 0) { // flight exists once leader joined
			t.Error("flight never appeared")
		}
		_, _, _, err := c.Fetch(ctx, key, "t", func() (Result, error) {
			return Result{}, errors.New("follower must not run")
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Error(err)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	time.Sleep(2 * time.Millisecond)
	close(release)
	wg.Wait()
	if left := c.flights.Len(); left != 0 {
		t.Fatalf("%d flights leaked", left)
	}
}

// TestCacheEvictionAliasingStress is the ownership-discipline stress:
// heavy fills force constant eviction and slab recycling while readers
// hold and verify entry bodies. Any aliasing of a recycled slab into a
// held entry corrupts the byte pattern and fails the test (run under
// -race via make race).
func TestCacheEvictionAliasingStress(t *testing.T) {
	const (
		nKeys   = 64
		bodyLen = 2048
		workers = 8
	)
	// Budget small enough that only a handful of entries fit: maximum
	// eviction churn.
	c := NewCache(int64(3 * (bodyLen + entryOverhead)))
	keyOf := make([]CacheKey, nKeys)
	for i := range keyOf {
		keyOf[i] = DecodeKey([]byte(fmt.Sprintf("stress-%d", i)))
	}
	bodyOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, bodyLen) }

	var wg sync.WaitGroup
	stop := time.Now().Add(200 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				i := rng.Intn(nKeys)
				res, release, _, err := c.Fetch(context.Background(), keyOf[i], "t", func() (Result, error) {
					return Result{Body: bodyOf(i)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Body) != bodyLen {
					t.Errorf("truncated body: %d bytes", len(res.Body))
					release()
					return
				}
				for _, b := range res.Body {
					if b != byte(i) {
						t.Errorf("aliased body for key %d: found byte %d", i, b)
						release()
						return
					}
				}
				release()
			}
		}(int64(w))
	}
	wg.Wait()
	if c.evictions.Load() == 0 {
		t.Fatal("stress produced no evictions; budget too large to test aliasing")
	}
	// All readers released: resident bytes must match the LRU's count and
	// per-tenant attribution.
	snap := c.Snapshot()
	var tenantResident int64
	for _, ts := range snap.Tenants {
		tenantResident += ts.ResidentBytes
	}
	if tenantResident != snap.ResidentBytes {
		t.Fatalf("tenant resident %d != LRU resident %d", tenantResident, snap.ResidentBytes)
	}
}

// FuzzCacheKeyCanonical fuzzes the canonical preimage: two parameter
// tuples that differ anywhere must never serialize to the same bytes
// (and therefore can never collide as keys, short of SHA-256 breaking).
func FuzzCacheKeyCanonical(f *testing.F) {
	f.Add(byte(0), "q", uint64(4), []byte("s"), byte(1), "q", uint64(5), []byte("s"))
	f.Add(byte(0), "a", uint64(1), []byte(""), byte(0), "aa", uint64(1), []byte(""))
	f.Add(byte(2), "w", uint64(48), []byte("xy"), byte(2), "w", uint64(48), []byte("xy"))
	f.Fuzz(func(t *testing.T, k1 byte, n1 string, v1 uint64, p1 []byte, k2 byte, n2 string, v2 uint64, p2 []byte) {
		var b1, b2 bytes.Buffer
		writeCanonicalKey(&b1, Kind(k1%byte(nKinds)), []keyParam{{n1, v1}}, p1)
		writeCanonicalKey(&b2, Kind(k2%byte(nKinds)), []keyParam{{n2, v2}}, p2)
		same := k1%byte(nKinds) == k2%byte(nKinds) && n1 == n2 && v1 == v2 && bytes.Equal(p1, p2)
		if same != bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("canonical preimage not injective: same=%v for (%d,%q,%d,%q) vs (%d,%q,%d,%q)",
				same, k1, n1, v1, p1, k2, n2, v2, p2)
		}
		if same && computeCacheKey(Kind(k1%byte(nKinds)), []keyParam{{n1, v1}}, p1) !=
			computeCacheKey(Kind(k2%byte(nKinds)), []keyParam{{n2, v2}}, p2) {
			t.Fatal("equal tuples must produce equal keys")
		}
	})
}
