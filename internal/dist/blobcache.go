package dist

import (
	"context"
	"sync"
	"sync/atomic"
)

// BlobCache is the donor side of the content-addressed bulk channel: a
// byte-budgeted LRU of shared blobs keyed by content digest. Concurrent
// Get calls for one key are singleflighted — the first caller fetches over
// the wire while the rest park on the entry — so a pool of donors starting
// on the same problem performs exactly one fetch.
//
// One cache may be shared by several donors in a process (RunLocal wires
// its whole worker pool to one, and WithBlobCache does the same for
// hand-built pools); a Donor given no cache creates a private one sized by
// DonorOptions.BlobCacheBytes. Entries are immutable by construction —
// the key is the hash of the bytes — so sharing them across donors,
// problems and even server reconnects is always safe.
type BlobCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64                 //dist:guardedby mu
	entries map[string]*blobEntry //dist:guardedby mu
	// order is LRU order, oldest first. Entries still being fetched are in
	// entries (that is what singleflights followers) but not yet in order,
	// so eviction can never pick an in-flight fetch.
	//dist:guardedby mu
	order []string

	fetches atomic.Int64
}

// blobEntry is one cached (or in-flight) blob. data and err are written
// exactly once, before ready is closed; waiters read them only after the
// close, which orders the accesses.
type blobEntry struct {
	ready chan struct{}
	data  []byte
	err   error
}

// NewBlobCache creates a cache holding at most budget bytes of blob data.
// budget <= 0 keeps only the most recently used blob (the eviction floor:
// even a zero budget never evicts the entry the donor is actively using,
// so a tiny budget degrades to per-problem refetches, not a livelock).
func NewBlobCache(budget int64) *BlobCache {
	if budget < 0 {
		budget = 0
	}
	return &BlobCache{
		budget:  budget,
		entries: make(map[string]*blobEntry),
	}
}

// Fetches reports how many fetches completed successfully over the cache's
// lifetime — the number Get calls that went to the wire rather than the
// cache or another caller's in-flight fetch.
func (c *BlobCache) Fetches() int64 { return c.fetches.Load() }

// Get returns the blob cached under key, running fetch (at most once
// across concurrent callers) on a miss. A failed fetch is not cached: its
// error is delivered to every caller of that flight and the next Get
// retries. A ctx cancellation abandons only this caller's wait; the flight
// itself runs detached from the initiating caller's cancellation — several
// donors may be parked on it, and one caller's aborted unit must not
// poison the blob for the rest. (The fetch stays bounded by the transport
// layer's own timeouts, as it was before the cache existed.)
func (c *BlobCache) Get(ctx context.Context, key string, fetch func(context.Context) ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touchLocked(key)
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return e.data, e.err
	}
	e := &blobEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	data, err := fetch(context.WithoutCancel(ctx))
	c.mu.Lock()
	if err != nil {
		// The entry removed is necessarily this flight's own: eviction
		// skips in-flight entries and a new flight for the key can only
		// start after this delete.
		delete(c.entries, key)
	} else {
		c.fetches.Add(1)
		e.data = data
		c.used += int64(len(data))
		c.order = append(c.order, key)
		c.evictLocked()
	}
	c.mu.Unlock()
	e.err = err
	close(e.ready)
	return data, err
}

// touchLocked moves key to the most-recently-used end. No-op for keys not
// yet in order (in-flight fetches). Callers hold mu.
//
//dist:locked mu
func (c *BlobCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

// evictLocked drops least-recently-used entries until the cache fits its
// budget, always keeping the most recent one: the blob a donor just
// fetched must survive long enough to be used, however small the budget.
// Callers hold mu.
//
//dist:locked mu
func (c *BlobCache) evictLocked() {
	for c.used > c.budget && len(c.order) > 1 {
		c.dropLocked(c.order[0])
	}
}

// dropLocked removes one completed entry. Callers hold mu.
//
//dist:locked mu
func (c *BlobCache) dropLocked(key string) {
	e, ok := c.entries[key]
	if !ok {
		return
	}
	select {
	case <-e.ready:
	default:
		return // in-flight: not in order, never dropped
	}
	delete(c.entries, key)
	c.used -= int64(len(e.data))
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
