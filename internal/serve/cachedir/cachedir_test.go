package cachedir

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validKey(seed byte) string {
	return strings.Repeat(string([]byte{'a' + seed%6}), 64)
}

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := validKey(0)
	if _, ok, err := st.Get(key); err != nil || ok {
		t.Fatalf("empty store returned ok=%v err=%v", ok, err)
	}
	want := "GMEAN speedup 2.27x\n"
	if err := st.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if string(got) != want {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v, want 1", n, err)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := validKey(1)
	if err := st.Put(key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Get(key)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("reopened store: %q, ok=%v, err=%v", got, ok, err)
	}
}

// TestBadKeys pins the path-traversal guard: only 64-char lowercase hex
// is a key; everything else is rejected by Get and Put alike.
func TestBadKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"short",
		strings.Repeat("a", 63),
		strings.Repeat("a", 65),
		strings.Repeat("A", 64),         // uppercase hex is not canonical
		strings.Repeat("g", 64),         // not hex
		"../" + strings.Repeat("a", 61), // traversal
		strings.Repeat("a", 32) + "/" + strings.Repeat("a", 31),
	}
	for _, key := range bad {
		if err := st.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted bad key %q", key)
		}
		if _, _, err := st.Get(key); err == nil {
			t.Errorf("Get accepted bad key %q", key)
		}
	}
}

// TestCorruptionQuarantined pins the verification contract: a blob whose
// body no longer matches its header digest is never served — it is moved
// to quarantine/, counted, and reported as a miss so the caller
// recomputes; a fresh Put then restores the entry.
func TestCorruptionQuarantined(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := validKey(2)
	want := "Fig. 7 | GMN 2.27x\n"
	if err := st.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the body on disk.
	path := filepath.Join(st.Dir(), key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, ok, err := st.Get(key)
	if err != nil {
		t.Fatalf("Get of a corrupt blob errored: %v", err)
	}
	if ok {
		t.Fatalf("corrupt blob was served: %q", got)
	}
	if n := st.Corruptions(); n != 1 {
		t.Fatalf("Corruptions = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(st.QuarantinePath(), key)); err != nil {
		t.Fatalf("corrupt blob not in quarantine: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still in the served namespace (err=%v)", err)
	}

	// The slot is a plain miss now; recomputing repairs it.
	if err := st.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	got, ok, err = st.Get(key)
	if err != nil || !ok || string(got) != want {
		t.Fatalf("repaired blob: %q ok=%v err=%v", got, ok, err)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len after quarantine+repair = %d, %v, want 1 (quarantine must not count)", n, err)
	}
}

// TestBadHeaderQuarantined: a file without the verification header (e.g.
// written by a pre-framing version, or a stray file) is quarantined too —
// nothing unverifiable is ever served.
func TestBadHeaderQuarantined(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := validKey(3)
	path := filepath.Join(st.Dir(), key[:2], key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("raw unframed result\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(key); err != nil || ok {
		t.Fatalf("unframed blob served: ok=%v err=%v", ok, err)
	}
	if n := st.Corruptions(); n != 1 {
		t.Fatalf("Corruptions = %d, want 1", n)
	}
}

// TestTruncatedBlobQuarantined: a blob cut mid-body (a torn write that
// somehow survived the atomic-rename discipline) fails verification.
func TestTruncatedBlobQuarantined(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := validKey(4)
	if err := st.Put(key, []byte("a result long enough to truncate\n")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(key); ok {
		t.Fatal("truncated blob was served")
	}
	if n := st.Corruptions(); n != 1 {
		t.Fatalf("Corruptions = %d, want 1", n)
	}
}

// TestLenSkipsSiblingState: files other layers keep under the store root
// (the serve journal, quarantined blobs, dotfiles) are not cache entries.
func TestLenSkipsSiblingState(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(validKey(5), []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal", "wal.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v, want 1", n, err)
	}
}
