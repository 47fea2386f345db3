// Package checkpoint is the repository's one content-addressed store: a
// directory of atomic JSON envelopes, one file per entry, named by the
// hex SHA-256 of the entry's canonical key. It backs both durable
// stores: the sweep fabric checkpoints every completed grid cell's row
// through Save and Load, so a killed sweep resumes mid-grid, and
// fetserve's disk cache tier (internal/serve) persists every answer
// through Save and reads it back by bare hash through LoadHash.
//
// On disk an entry is <HashHex(key)>.json holding the envelope
// {"key": key, "body_sha256": HashHex(body), "body": body}. Because a
// fetcell key pins every parameter its body is a deterministic function
// of, an entry can never be replayed against a different
// configuration: changing any parameter changes the key hash, and the
// stale entry simply stops matching.
//
// Durability contract: writes are atomic (temp file + rename in the
// same directory), so a SIGKILL mid-write leaves a stale *.tmp file but
// never a torn envelope, and Open removes such leftovers. Reads verify
// both content addresses — the file name against the key, the recorded
// digest against the body — and treat anything corrupt or misnamed as a
// miss rather than trusting it. An entry is therefore either whole or
// absent, and an absent one is recomputed from its seed to the same
// bytes: a resumed sweep is byte-identical to an uninterrupted one, and
// a restarted daemon serves the bytes a cold run would.
//
// Precondition: one writer per directory. Open deletes every *.tmp file
// it finds, including one another live process is about to rename, so
// two processes must not share a directory; each fleet runner gets its
// own -checkpoint directory and each fetserve its own -cache-dir.
// Within a process, Store methods are safe for concurrent use: distinct
// keys write distinct files, and re-saves of the same key are
// idempotent replacements of identical bytes.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const (
	ext       = ".json" // an envelope file's suffix
	tmpSuffix = ".tmp"  // an unrenamed write's suffix
)

// HashHex returns the bare hex SHA-256 of s: an entry's file name stem
// when s is its canonical key, its recorded digest when s is its body.
func HashHex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// envelope is the on-disk form of one entry.
type envelope struct {
	// Key is the canonical key string; its SHA-256 must equal the
	// file's name stem.
	Key string `json:"key"`
	// BodySHA256 is the hex SHA-256 of Body, detecting torn or
	// bit-rotted payloads independently of the file name.
	BodySHA256 string `json:"body_sha256"`
	// Body is the stored payload (a sweep row or a served answer, in
	// canonical JSON).
	Body json.RawMessage `json:"body"`
}

// Store is one store directory.
type Store struct {
	dir string
}

// Entry is one envelope file found by OpenScan's directory scan. It is
// unverified until loaded. The DirEntry stats the file only when its
// Info is asked for, so a scan whose caller never asks (a sweep) costs
// one ReadDir.
type Entry struct {
	// Hash is the file name stem: the key hash the file claims.
	Hash string
	fs.DirEntry
}

// Open creates the directory if needed, removes the temp files a
// killed writer left behind, and returns the store.
func Open(dir string) (*Store, error) {
	s, _, err := OpenScan(dir)
	return s, err
}

// OpenScan is Open that also returns the envelope files its one
// directory scan found, in directory order.
func OpenScan(dir string) (*Store, []Entry, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %v", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %v", err)
	}
	var entries []Entry
	for _, f := range files {
		name := f.Name()
		switch {
		case f.IsDir():
		case strings.HasSuffix(name, tmpSuffix):
			// A write killed between create and rename; with one
			// writer per directory, nothing will ever rename it.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ext):
			entries = append(entries, Entry{Hash: strings.TrimSuffix(name, ext), DirEntry: f})
		}
	}
	return &Store{dir: dir}, entries, nil
}

// path returns the envelope file for a key hash.
func (s *Store) path(hash string) string { return filepath.Join(s.dir, hash+ext) }

// LoadHash returns the key and body stored under a bare hex key hash,
// or ok = false when no valid envelope exists. A present-but-invalid
// file (torn write, bit rot, misnamed, not JSON) is a miss, never
// trusted: the caller recomputes the entry from its key.
func (s *Store) LoadHash(hash string) (key string, body []byte, ok bool) {
	if len(hash) != 2*sha256.Size || strings.ContainsAny(hash, `/\.`) {
		return "", nil, false // not a hash: never a path outside the directory
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return "", nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key == "" || len(env.Body) == 0 {
		return "", nil, false
	}
	// Both content addresses must hold: the file name is the key's
	// hash, and the recorded body digest is the body's.
	if HashHex(env.Key) != hash || HashHex(string(env.Body)) != env.BodySHA256 {
		return "", nil, false
	}
	return env.Key, env.Body, true
}

// Load returns the body stored under a canonical key, or ok = false
// when no valid envelope for exactly that key exists.
func (s *Store) Load(canonical string) ([]byte, bool) {
	key, body, ok := s.LoadHash(HashHex(canonical))
	if !ok || key != canonical {
		return nil, false
	}
	return body, true
}

// Save durably stores body under the canonical key: marshal the
// envelope to a temp file in the store directory, then rename it onto
// the final name. A crash at any point leaves either the old state or
// the new envelope, never a torn file that a load would accept.
func (s *Store) Save(canonical string, body []byte) (err error) {
	hash := HashHex(canonical)
	defer func() {
		if err != nil {
			err = fmt.Errorf("checkpoint: %s: %v", hash, err)
		}
	}()
	data, err := json.Marshal(envelope{Key: canonical, BodySHA256: HashHex(string(body)), Body: body})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "cell-*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(hash))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
