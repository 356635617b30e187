package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSchedule drops content into a temp file and returns its path.
func writeSchedule(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFile covers the file-level entry point the CLIs use: a valid
// schedule loads and comes back sorted, and every error path — missing
// file, truncated JSON, malformed JSON, unknown fields — returns an error
// instead of a zero schedule or a panic.
func TestLoadFile(t *testing.T) {
	s, err := LoadFile(writeSchedule(t, `{"seed":3,"events":[
		{"at_ps":200,"kind":"link_down","channel":1},
		{"at_ps":100,"kind":"gpu_down","gpu":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 3 || len(s.Events) != 2 {
		t.Fatalf("loaded %+v", s)
	}
	if s.Events[0].At != 100 {
		t.Fatalf("LoadFile did not sort: first event at %d", s.Events[0].At)
	}
}

func TestLoadFileMissing(t *testing.T) {
	_, err := LoadFile(filepath.Join(t.TempDir(), "no-such-file.json"))
	if err == nil {
		t.Fatal("missing file loaded")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("want a not-exist error the caller can branch on, got %v", err)
	}
}

func TestLoadFileTruncated(t *testing.T) {
	// A partially-written file — the crash shape a crash-tolerant server
	// must also survive. Error out, never return the readable prefix.
	_, err := LoadFile(writeSchedule(t, `{"seed":3,"events":[{"at":200,"kind":"link_d`))
	if err == nil {
		t.Fatal("truncated schedule loaded")
	}
	if !strings.Contains(err.Error(), "decode schedule") {
		t.Fatalf("error does not name the decode stage: %v", err)
	}
}

func TestLoadFileMalformed(t *testing.T) {
	for name, content := range map[string]string{
		"not json":       `this is not json at all`,
		"wrong type":     `{"seed":"three"}`,
		"unknown field":  `{"seed":1,"surprise":true}`,
		"unknown nested": `{"events":[{"at_ps":1,"kind":"gpu_down","bogus":2}]}`,
	} {
		if _, err := LoadFile(writeSchedule(t, content)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

func TestLoadFileEmpty(t *testing.T) {
	// An empty file is not a schedule — io.EOF from the decoder, wrapped.
	if _, err := LoadFile(writeSchedule(t, "")); err == nil {
		t.Fatal("empty file loaded")
	}
}
