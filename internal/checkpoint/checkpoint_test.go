package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testKey = "fetcell/v1 scenario=worst-case engine=agent-fast topology=complete n=64 ell=18 replicates=4 max_rounds=2400 seed=9"

// pinnedBody is the body of the checked-in envelope under testKey.
const pinnedBody = `{"cell":3,"n":64,"replicates":4,"converged":4,"p_converged":1,"t_con_mean":17.25}`

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"cell":0,"n":64}`)
	if _, ok := st.Load(testKey); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Save(testKey, body); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Load(testKey)
	if !ok || string(got) != string(body) {
		t.Fatalf("Load = %q, %v; want %q, true", got, ok, body)
	}
	key, got, ok := st.LoadHash(HashHex(testKey))
	if !ok || key != testKey || string(got) != string(body) {
		t.Fatalf("LoadHash = %q, %q, %v; want the saved key and body", key, got, ok)
	}
	// Idempotent re-save.
	if err := st.Save(testKey, body); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("files after re-save: %v, want one envelope", files)
	}
	for _, bad := range []string{"", "../" + HashHex(testKey)[3:], strings.ToUpper(HashHex(testKey))} {
		if _, _, ok := st.LoadHash(bad); ok {
			t.Fatalf("LoadHash(%q) accepted a non-hash", bad)
		}
	}
}

// TestOnDiskFormatPinned pins the envelope bytes: Save must reproduce
// the checked-in file exactly, and loads must accept it, so stores
// written by earlier versions of the code keep loading.
func TestOnDiskFormatPinned(t *testing.T) {
	name := HashHex(testKey) + ext
	pinned, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testKey, []byte(pinnedBody)); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, pinned) {
		t.Fatalf("Save wrote\n%s\nwant the pinned\n%s", saved, pinned)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	st, entries, err := OpenScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Hash != HashHex(testKey) {
		t.Fatalf("OpenScan entries = %+v, want the one pinned envelope", entries)
	}
	if got, ok := st.Load(testKey); !ok || string(got) != pinnedBody {
		t.Fatalf("Load(pinned) = %q, %v", got, ok)
	}
}

// TestLoadRejectsCorruptEnvelopes is the store's one verification
// table: every way a file under the key's name can be wrong, checked
// through both loaders (by canonical key, and by bare hash as the
// fetserve cache reads).
func TestLoadRejectsCorruptEnvelopes(t *testing.T) {
	body := []byte(`{"cell":3,"n":128}`)
	hash := HashHex(testKey)
	rewrite := func(edit func(data []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(env envelope) func(t *testing.T, path string) {
		return rewrite(func([]byte) []byte {
			data, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			return data
		})
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated file", rewrite(func(data []byte) []byte { return data[:len(data)/2] })},
		{"flipped body bit", rewrite(func(data []byte) []byte {
			tampered := bytes.Replace(data, []byte(`"n":128`), []byte(`"n":129`), 1)
			if bytes.Equal(tampered, data) {
				t.Fatal("tamper target not found")
			}
			return tampered
		})},
		{"foreign key under our name", write(envelope{Key: testKey + "0", BodySHA256: HashHex(string(body)), Body: body})},
		{"recorded digest mismatch", write(envelope{Key: testKey, BodySHA256: HashHex("other"), Body: body})},
		{"missing body", rewrite(func([]byte) []byte {
			return []byte(`{"key":"` + testKey + `","body_sha256":"` + HashHex("") + `"}`)
		})},
		{"not JSON", rewrite(func([]byte) []byte { return []byte("garbage") })},
		{"missing file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(testKey, body); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(dir, hash+ext))
			if got, ok := st.Load(testKey); ok {
				t.Fatalf("Load accepted a corrupt envelope: %q", got)
			}
			if key, got, ok := st.LoadHash(hash); ok {
				t.Fatalf("LoadHash accepted a corrupt envelope: %q, %q", key, got)
			}
		})
	}
}

// TestOpenRemovesStaleTempFiles pins the crash-mid-write story: the
// *.tmp a SIGKILL between create and rename leaves is removed when the
// store is next opened, and the valid envelope beside it still loads.
func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"cell":1,"n":64}`)
	if err := st.Save(testKey, body); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "cell-123.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, entries, err := OpenScan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
	if len(entries) != 1 || entries[0].Hash != HashHex(testKey) {
		t.Fatalf("OpenScan entries = %+v, want only the envelope", entries)
	}
	if got, ok := st.Load(testKey); !ok || string(got) != string(body) {
		t.Fatalf("envelope beside the temp file: Load = %q, %v", got, ok)
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		t.Fatalf("Open did not create %s: %v", dir, err)
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
