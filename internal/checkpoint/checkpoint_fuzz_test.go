package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad writes arbitrary bytes under an arbitrary key's file name
// and drives both loaders over it. Whatever they accept must verify:
// the key hashes to the file stem, the body hashes to the digest the
// file records, and Load(canonical) returns only canonical's own entry.
func FuzzLoad(f *testing.F) {
	pinned, err := os.ReadFile(filepath.Join("testdata", HashHex(testKey)+ext))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(testKey, pinned)                                                          // a real envelope
	f.Add(testKey, pinned[:len(pinned)/2])                                          // torn write
	f.Add(testKey, bytes.Replace(pinned, []byte(`17.25`), []byte(`17.5`), 1))       // flipped body
	f.Add(testKey+"0", pinned)                                                      // misnamed
	f.Add(testKey, []byte("garbage"))                                               // not JSON
	f.Add(testKey, []byte(`{"key":"`+testKey+`","body_sha256":"`+HashHex("")+`"}`)) // no body
	f.Fuzz(func(t *testing.T, canonical string, data []byte) {
		dir := t.TempDir()
		hash := HashHex(canonical)
		if err := os.WriteFile(filepath.Join(dir, hash+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		verified := func(loader, key string, body []byte) {
			var recorded struct {
				BodySHA256 string `json:"body_sha256"`
			}
			if err := json.Unmarshal(data, &recorded); err != nil {
				t.Fatalf("%s accepted a file that is not an envelope: %v", loader, err)
			}
			if HashHex(key) != hash {
				t.Fatalf("%s accepted key %q under another key's name %s", loader, key, hash)
			}
			if HashHex(string(body)) != recorded.BodySHA256 {
				t.Fatalf("%s accepted body %q against recorded digest %s", loader, body, recorded.BodySHA256)
			}
		}
		key, body, ok := st.LoadHash(hash)
		if ok {
			verified("LoadHash", key, body)
		}
		if body, ok := st.Load(canonical); ok {
			verified("Load", canonical, body)
			if key != canonical {
				t.Fatalf("Load(%q) accepted the entry of key %q", canonical, key)
			}
		}
	})
}
