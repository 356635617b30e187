// Package cachedir is a content-addressed blob store on disk: the result
// cache behind memnetd's -cache-dir flag, and the store of its queued jobs
// under <cache-dir>/pending. Keys are lowercase hex SHA-256 digests of the
// canonical job spec; values are the rendered experiment results, or the
// queued jobs' entries. Writes and deletes are atomic (temp file + rename,
// unlink) and durable (the file and its parent directory are fsync'd), so
// a crashed or killed server — or a power loss right after the rename —
// never leaves a truncated or unlinked blob that a later process would
// trust as authoritative.
//
// Reads are verified: every blob is framed with a header recording the
// SHA-256 of its body, and Get recomputes and compares the digest before
// returning anything. A blob that fails verification — a bit flip, a
// truncation that survived the crash-consistency guarantees, a stray file
// — is never served: it is moved into the store's quarantine/ directory,
// counted, and reported as a miss so the caller recomputes the result.
package cachedir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"memnet/internal/telemetry"
)

// keyLen is the length of a lowercase hex SHA-256 digest.
const keyLen = 64

// headerMagic opens every blob file; the body's hex digest and a newline
// follow it. Verification lives in the file rather than in the file name
// because the key hashes the *inputs* (the job spec), not the output.
const headerMagic = "memnet-cache/v1 "

// headerLen is the full framing length: magic + digest + newline.
const headerLen = len(headerMagic) + keyLen + 1

// quarantineDir is the subdirectory corrupt blobs are moved into.
const quarantineDir = "quarantine"

// Store is a directory of content-addressed blobs. Methods are safe for
// concurrent use by multiple goroutines (atomic rename publishes a blob);
// concurrent writers of the same key converge on identical content, since
// keys are hashes of the inputs that deterministically produced the value.
type Store struct {
	dir string
	met Counters
}

// Counters are the store's optional telemetry hooks. Nil counters no-op
// (the telemetry package's nil-receiver contract), so an uninstrumented
// store pays nothing.
type Counters struct {
	Hits        *telemetry.Counter // Get found and verified the blob
	Misses      *telemetry.Counter // Get found nothing
	Writes      *telemetry.Counter // Put persisted a blob
	Errors      *telemetry.Counter // any Get/Put I/O, fsync or key failure
	Corruptions *telemetry.Counter // Get quarantined a blob that failed verification
}

// Instrument attaches telemetry counters to the store. Call before
// serving; the store never mutates the counters' registration.
func (s *Store) Instrument(c Counters) { s.met = c }

// Open ensures dir exists and is writable and returns the store. The
// writability probe fails fast at startup instead of on the first Put
// mid-service.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachedir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("cachedir: %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// QuarantinePath returns the directory corrupt blobs are moved into (it
// may not exist until the first corruption).
func (s *Store) QuarantinePath() string { return filepath.Join(s.dir, quarantineDir) }

// checkKey rejects anything but a lowercase hex digest. Keys become file
// names, so this is also the path-traversal guard: "../../etc/passwd" or
// an absolute path can never reach the filesystem layer.
func checkKey(key string) error {
	if len(key) != keyLen {
		return fmt.Errorf("cachedir: bad key %q: want %d hex characters", key, keyLen)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("cachedir: bad key %q: want lowercase hex", key)
		}
	}
	return nil
}

// path returns the blob's file name: two-level fan-out keeps any one
// directory small under millions of cached results.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// frame returns the stored representation of data: the verification
// header followed by the body.
func frame(data []byte) []byte {
	sum := sha256.Sum256(data)
	out := make([]byte, 0, headerLen+len(data))
	out = append(out, headerMagic...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, data...)
}

// unframe verifies raw against its header and returns the body, or an
// error describing why the blob cannot be trusted.
func unframe(raw []byte) ([]byte, error) {
	if len(raw) < headerLen || string(raw[:len(headerMagic)]) != headerMagic {
		return nil, fmt.Errorf("missing %q header", headerMagic)
	}
	if raw[headerLen-1] != '\n' {
		return nil, fmt.Errorf("malformed header")
	}
	want := string(raw[len(headerMagic) : headerLen-1])
	body := raw[headerLen:]
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("digest mismatch: header %s, body %s", want, got)
	}
	return body, nil
}

// Get returns the blob stored under key, or ok=false if absent. A blob
// that fails verification is quarantined and reported as a miss — a
// corrupt entry is never served, the caller recomputes it.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if err := checkKey(key); err != nil {
		s.met.Errors.Inc()
		return nil, false, err
	}
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		s.met.Misses.Inc()
		return nil, false, nil
	}
	if err != nil {
		s.met.Errors.Inc()
		return nil, false, fmt.Errorf("cachedir: %w", err)
	}
	body, verr := unframe(raw)
	if verr != nil {
		s.quarantine(key)
		s.met.Misses.Inc()
		return nil, false, nil
	}
	s.met.Hits.Inc()
	return body, true, nil
}

// quarantine moves a corrupt blob out of the served namespace so it can
// be inspected but never returned again; the slot becomes a miss and the
// next Put rewrites it. A second corruption of the same key overwrites
// the quarantined copy — the freshest evidence wins.
func (s *Store) quarantine(key string) {
	s.met.Corruptions.Inc()
	qdir := s.QuarantinePath()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.met.Errors.Inc()
		os.Remove(s.path(key)) // still never serve it again
		return
	}
	if err := os.Rename(s.path(key), filepath.Join(qdir, key)); err != nil {
		s.met.Errors.Inc()
		os.Remove(s.path(key))
	}
}

// Put stores data under key atomically and durably: the framed blob is
// fsync'd before the rename publishes it, and the parent directory is
// fsync'd after, so a committed entry survives power loss — not just a
// process crash.
func (s *Store) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		s.met.Errors.Inc()
		return err
	}
	dst := s.path(key)
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: %w", err)
	}
	_, werr := tmp.Write(frame(data))
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: %w", werr)
	}
	if err := syncDir(dir); err != nil {
		// The blob is visible and verified; only its durability across a
		// power loss is in doubt. Surface that through the error counter
		// and the returned error, but leave the entry in place.
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: fsync %s: %w", dir, err)
	}
	s.met.Writes.Inc()
	return nil
}

// Delete removes the blob stored under key, durably: the parent directory
// is fsync'd after the unlink, so a deleted entry stays deleted across a
// power loss. Deleting an absent key is not an error.
func (s *Store) Delete(key string) error {
	if err := checkKey(key); err != nil {
		s.met.Errors.Inc()
		return err
	}
	if err := os.Remove(s.path(key)); os.IsNotExist(err) {
		return nil
	} else if err != nil {
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: %w", err)
	}
	if err := syncDir(filepath.Dir(s.path(key))); err != nil {
		s.met.Errors.Inc()
		return fmt.Errorf("cachedir: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed or unlinked entry's name
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// isFanout reports whether name is a two-hex-character fan-out directory
// (the only place blobs live).
func isFanout(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Keys lists the stored keys in lexical order (a recovery and debugging
// helper, not a hot path). Only blobs named by their key inside its
// fan-out directory count: temp files, quarantined blobs and any sibling
// state another layer keeps under the store's root (e.g. memnetd's
// pending store beside its results) are not entries.
func (s *Store) Keys() ([]string, error) {
	var keys []string
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cachedir: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir() || !isFanout(d.Name()) {
			continue
		}
		blobs, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			return nil, fmt.Errorf("cachedir: %w", err)
		}
		for _, b := range blobs {
			if name := b.Name(); !b.IsDir() && checkKey(name) == nil && name[:2] == d.Name() {
				keys = append(keys, name)
			}
		}
	}
	return keys, nil
}
