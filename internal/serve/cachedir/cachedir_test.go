package cachedir

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/telemetry"
)

func validKey(seed byte) string {
	return strings.Repeat(string([]byte{'a' + seed%6}), 64)
}

// openCounted opens a store in a fresh directory that counts its
// quarantines on the returned counter.
func openCounted(t *testing.T) (*Store, *telemetry.Counter) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	corruptions := new(telemetry.Counter)
	st.Instrument(Counters{Corruptions: corruptions})
	return st, corruptions
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
	if keys, err := st.Keys(); err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v, %v, want [%s]", keys, err, key)
	}
	// Deleting twice is fine: the second finds nothing to remove.
	if err, again := st.Delete(key), st.Delete(key); err != nil || again != nil {
		t.Fatalf("Delete = %v, then %v", err, again)
	}
	if _, ok, err := st.Get(key); err != nil || ok {
		t.Fatalf("Get after Delete: ok=%v err=%v", ok, err)
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
		if err := st.Delete(key); err == nil {
			t.Errorf("Delete accepted bad key %q", key)
		}
	}
}

// TestCorruptionQuarantined pins the verification contract: a blob whose
// body no longer matches its header digest is never served — it is moved
// to quarantine/, counted, and reported as a miss so the caller
// recomputes; a fresh Put then restores the entry.
func TestCorruptionQuarantined(t *testing.T) {
	st, corruptions := openCounted(t)
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
	if n := corruptions.Value(); n != 1 {
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
	if keys, err := st.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("Keys after quarantine+repair = %v, %v, want 1 (quarantine must not count)", keys, err)
	}
}

// TestBadHeaderQuarantined: a file without the verification header (e.g.
// written by a pre-framing version, or a stray file) is quarantined too —
// nothing unverifiable is ever served.
func TestBadHeaderQuarantined(t *testing.T) {
	st, corruptions := openCounted(t)
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
	if n := corruptions.Value(); n != 1 {
		t.Fatalf("Corruptions = %d, want 1", n)
	}
}

// TestTruncatedBlobQuarantined: a blob cut mid-body (a torn write that
// somehow survived the atomic-rename discipline) fails verification.
func TestTruncatedBlobQuarantined(t *testing.T) {
	st, corruptions := openCounted(t)
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
	if n := corruptions.Value(); n != 1 {
		t.Fatalf("Corruptions = %d, want 1", n)
	}
}

// TestLenSkipsSiblingState: the number of keys counts entries only. State
// other layers keep under the store root (a nested store, quarantined
// blobs, temp files, strays) is not an entry.
func TestLenSkipsSiblingState(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(validKey(5), []byte("blob")); err != nil {
		t.Fatal(err)
	}
	nested, err := Open(filepath.Join(dir, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nested.Put(validKey(0), []byte("entry")); err != nil {
		t.Fatal(err)
	}
	fan := filepath.Join(dir, validKey(5)[:2])
	for _, stray := range []string{filepath.Join(dir, "stray.txt"), filepath.Join(fan, ".tmp-1"), filepath.Join(fan, validKey(0))} {
		if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if keys, err := st.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v, want 1", keys, err)
	}
}
