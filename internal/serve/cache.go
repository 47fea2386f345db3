package serve

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"passivespread/internal/checkpoint"
)

// Cache is the content-addressed answer cache: an LRU, byte-budgeted
// in-memory tier over an optional disk tier, the checkpoint store.
// Entries are keyed by the bare hex SHA-256 of the canonical cell key;
// the value is the exact response body served for that key, so a hit
// replays the cold-run bytes verbatim.
//
// The disk tier owns the file format, the atomic writes and the
// verification (see internal/checkpoint); the cache adds only the
// memory budget, its counters and the boot policy. Eviction only trims
// the memory tier: the disk tier keeps every answer ever computed and
// re-promotes on demand.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	store *checkpoint.Store // nil = memory only

	hits, diskHits, misses, evictions, puts uint64
}

// cacheEntry is one resident answer.
type cacheEntry struct {
	hash      string
	canonical string
	body      []byte
}

func (e *cacheEntry) size() int64 { return int64(len(e.body) + len(e.canonical) + len(e.hash)) }

// CacheStats is a point-in-time snapshot for fet.health and /metrics.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Puts      uint64 `json:"puts"`
	Persisted bool   `json:"persisted"`
}

// NewCache returns a cache bounded to maxBytes of resident answers
// (≤ 0 selects the 64 MiB default). When dir is non-empty it opens the
// checkpoint store there and loads every existing well-formed entry
// (most recently modified first) until the memory budget is full;
// corrupt or misnamed entries are counted and skipped, never trusted.
// The second return value is the number of rejected entries.
func NewCache(maxBytes int64, dir string) (*Cache, int, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	c := &Cache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
	if dir == "" {
		return c, 0, nil
	}
	store, entries, err := checkpoint.OpenScan(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: cache dir: %v", err)
	}
	c.store = store
	return c, c.boot(entries), nil
}

// boot fills the memory tier from the disk tier's scanned entries and
// returns how many it rejected.
func (c *Cache) boot(entries []checkpoint.Entry) (rejected int) {
	type candidate struct {
		hash  string
		mtime int64
	}
	files := make([]candidate, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, candidate{e.Hash, info.ModTime().UnixNano()})
	}
	// Newest first: when the directory outgrows the memory budget, the
	// hottest (most recently written) answers stay resident.
	sort.Slice(files, func(i, j int) bool { return files[i].mtime > files[j].mtime })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range files {
		key, body, ok := c.store.LoadHash(f.hash)
		if !ok {
			rejected++
			continue
		}
		entry := &cacheEntry{hash: f.hash, canonical: key, body: body}
		if c.bytes+entry.size() > c.maxBytes {
			break // older entries stay on disk, served via the disk tier
		}
		c.insertLocked(entry)
	}
	return rejected
}

// insertLocked adds entry to the memory tier (caller holds mu) and
// evicts from the LRU tail to fit the budget.
func (c *Cache) insertLocked(entry *cacheEntry) {
	if el, ok := c.items[entry.hash]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[entry.hash] = c.ll.PushFront(entry)
	c.bytes += entry.size()
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		tail := c.ll.Back()
		te := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, te.hash)
		c.bytes -= te.size()
		c.evictions++
	}
}

// Get returns the cached body for a bare hex key hash, consulting the
// memory tier then the disk tier (a disk hit is re-verified and
// promoted). The returned slice must not be modified.
func (c *Cache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return body, true
	}
	c.mu.Unlock()
	if c.store != nil {
		if key, body, ok := c.store.LoadHash(hash); ok {
			c.mu.Lock()
			c.insertLocked(&cacheEntry{hash: hash, canonical: key, body: body})
			c.diskHits++
			c.mu.Unlock()
			return body, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the answer body for a canonical key string, evicting LRU
// entries beyond the byte budget, and persists it to the disk tier
// when one is configured. Identical re-puts are idempotent.
func (c *Cache) Put(canonical string, body []byte) error {
	entry := &cacheEntry{hash: checkpoint.HashHex(canonical), canonical: canonical, body: body}
	c.mu.Lock()
	c.insertLocked(entry)
	c.puts++
	c.mu.Unlock()
	if c.store == nil {
		return nil
	}
	return c.store.Save(canonical, body)
}

// Contains is a side-effect-free cache peek (no LRU touch, no counter
// bump): membership in the memory tier, or a verified disk entry.
func (c *Cache) Contains(hash string) bool {
	c.mu.Lock()
	_, ok := c.items[hash]
	c.mu.Unlock()
	if ok {
		return true
	}
	if c.store == nil {
		return false
	}
	_, _, ok = c.store.LoadHash(hash)
	return ok
}

// Stats returns a point-in-time snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		DiskHits:  c.diskHits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Puts:      c.puts,
		Persisted: c.store != nil,
	}
}
