package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"passivespread/internal/checkpoint"
)

func testKeyN(n int) CellKey {
	k := validKey()
	k.N = n
	return k
}

func TestCacheMemoryHitAndMiss(t *testing.T) {
	c, rejected, err := NewCache(0, "")
	if err != nil || rejected != 0 {
		t.Fatalf("NewCache: %v (rejected %d)", err, rejected)
	}
	key := validKey().Canonical()
	hash := checkpoint.HashHex(key)
	if _, ok := c.Get(hash); ok {
		t.Fatal("hit on empty cache")
	}
	body := []byte(`{"answer":1}`)
	if err := c.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get: %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Persisted {
		t.Fatal("memory-only cache reports Persisted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget for roughly two entries; the least recently used falls out.
	keys := make([]string, 3)
	bodies := make([][]byte, 3)
	var entryBytes int64
	for i := range keys {
		keys[i] = testKeyN(1024 + i).Canonical()
		bodies[i] = []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		entryBytes = int64(len(bodies[i]) + len(keys[i]) + 64)
	}
	c, _, err := NewCache(2*entryBytes+2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(keys[0], bodies[0])
	c.Put(keys[1], bodies[1])
	c.Get(checkpoint.HashHex(keys[0])) // touch 0 so 1 is LRU
	c.Put(keys[2], bodies[2])
	if _, ok := c.Get(checkpoint.HashHex(keys[1])); ok {
		t.Fatal("LRU entry survived past the byte budget")
	}
	for _, i := range []int{0, 2} {
		if _, ok := c.Get(checkpoint.HashHex(keys[i])); !ok {
			t.Fatalf("recently used entry %d was evicted", i)
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats show no evictions: %+v", st)
	}
}

func TestCacheDiskPersistAndReload(t *testing.T) {
	dir := t.TempDir()
	key := validKey().Canonical()
	body := []byte(`{"answer":"persisted"}`)
	c1, _, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpoint.HashHex(key)+".json")); err != nil {
		t.Fatalf("persisted file: %v", err)
	}

	c2, rejected, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 {
		t.Fatalf("rejected %d entries on clean reload", rejected)
	}
	got, ok := c2.Get(checkpoint.HashHex(key))
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("reloaded Get: %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Hits != 1 || !st.Persisted {
		t.Fatalf("reloaded entry not resident: %+v", st)
	}
}

// TestCacheRejectsCorruptDiskEntries checks the cache's side of disk
// verification: a corrupt file is counted as rejected at boot and never
// served. The ways a file can be corrupt are tabulated in the store's
// own TestLoadRejectsCorruptEnvelopes.
func TestCacheRejectsCorruptDiskEntries(t *testing.T) {
	dir := t.TempDir()
	key := validKey().Canonical()
	good, _, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Put(key, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	envelope, err := os.ReadFile(filepath.Join(dir, checkpoint.HashHex(key)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	// A valid envelope under another key's name, and a file that is
	// not JSON at all.
	misnamed := checkpoint.HashHex("something else")
	garbage := checkpoint.HashHex(testKeyN(16384).Canonical())
	os.WriteFile(filepath.Join(dir, misnamed+".json"), envelope, 0o644)
	os.WriteFile(filepath.Join(dir, garbage+".json"), []byte("garbage"), 0o644)

	c, rejected, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 2 {
		t.Fatalf("rejected %d corrupt entries, want 2", rejected)
	}
	if _, ok := c.Get(checkpoint.HashHex(key)); !ok {
		t.Fatal("valid entry lost among corrupt ones")
	}
	for _, h := range []string{misnamed, garbage} {
		if _, ok := c.Get(h); ok {
			t.Fatalf("corrupt entry %s was served", h)
		}
		if c.Contains(h) {
			t.Fatalf("corrupt entry %s reported as cached", h)
		}
	}
}

// TestCacheBootsPinnedEnvelope boots the disk tier from the store's
// checked-in envelope: cache directories written by earlier versions
// of the code keep serving.
func TestCacheBootsPinnedEnvelope(t *testing.T) {
	const (
		key  = "fetcell/v1 scenario=worst-case engine=agent-fast topology=complete n=64 ell=18 replicates=4 max_rounds=2400 seed=9"
		want = `{"cell":3,"n":64,"replicates":4,"converged":4,"p_converged":1,"t_con_mean":17.25}`
	)
	name := checkpoint.HashHex(key) + ".json"
	pinned, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	c, rejected, err := NewCache(0, dir)
	if err != nil || rejected != 0 {
		t.Fatalf("NewCache: %v (rejected %d)", err, rejected)
	}
	body, ok := c.Get(checkpoint.HashHex(key))
	if !ok || string(body) != want {
		t.Fatalf("pinned envelope: Get = %q, %v", body, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("pinned envelope not resident after boot: %+v", st)
	}
}

func TestCacheContainsIsSideEffectFree(t *testing.T) {
	c, _, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	key := validKey().Canonical()
	c.Put(key, []byte(`{}`))
	before := c.Stats()
	if !c.Contains(checkpoint.HashHex(key)) {
		t.Fatal("Contains missed a resident entry")
	}
	if c.Contains(checkpoint.HashHex("absent")) {
		t.Fatal("Contains claimed an absent entry")
	}
	after := c.Stats()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Fatalf("Contains mutated counters: %+v → %+v", before, after)
	}
}
