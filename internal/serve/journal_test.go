package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memnet/internal/exp"
	"memnet/internal/telemetry"
)

// jspec returns a canonical spec and its key for journal tests.
func jspec(t *testing.T, experiment string, scale float64) (*JobSpec, string) {
	t.Helper()
	sp := &JobSpec{Experiment: experiment, Scale: scale}
	if err := sp.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return sp, sp.Key()
}

func TestJournalReplayMissingFile(t *testing.T) {
	rr, err := replayJournal(filepath.Join(t.TempDir(), "journal", journalFile))
	if err != nil {
		t.Fatalf("missing WAL is not an error, got %v", err)
	}
	if len(rr.Live) != 0 || rr.Truncated || rr.Records != 0 {
		t.Fatalf("missing WAL replayed as %+v, want empty", rr)
	}
}

// TestJournalRoundTrip appends a full lifecycle and checks replay reduces
// it to exactly the jobs that never reached a terminal record.
func TestJournalRoundTrip(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	specA, keyA := jspec(t, "fig7", 0.05)
	specB, keyB := jspec(t, "fig12", 0.05)
	for _, rec := range []journalRecord{
		{Type: recSubmitted, Job: keyA, Spec: specA},
		{Type: recSubmitted, Job: keyB, Spec: specB},
		{Type: recStarted, Job: keyA},
		{Type: recDone, Job: keyA},
	} {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rr, err := replayJournal(jl.path())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Truncated || rr.Records != 4 || rr.Skipped != 0 {
		t.Fatalf("replay = %+v, want 4 clean records", rr)
	}
	if len(rr.Live) != 1 || rr.Live[0].key != keyB || rr.Live[0].started {
		t.Fatalf("live = %+v, want only the never-started %s", rr.Live, keyB)
	}
}

// TestJournalReplayTruncatedLastLine is the crash shape: the process died
// mid-append and the final line is torn. Replay recovers the valid prefix
// and flags the damage — it never panics and never drops intact records.
func TestJournalReplayTruncatedLastLine(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specA, keyA := jspec(t, "fig7", 0.05)
	if err := jl.append(journalRecord{Type: recSubmitted, Job: keyA, Spec: specA}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	f, err := os.OpenFile(jl.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"submitted","job":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rr, err := replayJournal(jl.path())
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	if len(rr.Live) != 1 || rr.Live[0].key != keyA {
		t.Fatalf("valid prefix lost: live = %+v", rr.Live)
	}
}

// TestJournalReplayMalformedRecord: a garbage line mid-file ends the
// replay; everything before it is trusted, nothing after.
func TestJournalReplayMalformedRecord(t *testing.T) {
	dir := t.TempDir()
	specA, keyA := jspec(t, "fig7", 0.05)
	specB, keyB := jspec(t, "fig12", 0.05)
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{Type: recSubmitted, Job: keyA, Spec: specA}); err != nil {
		t.Fatal(err)
	}
	jl.close()
	f, err := os.OpenFile(jl.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("this is not json\n")
	f.Close()
	jl2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl2.append(journalRecord{Type: recSubmitted, Job: keyB, Spec: specB})
	jl2.close()

	rr, err := replayJournal(jl2.path())
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Truncated {
		t.Fatal("malformed record not reported")
	}
	if len(rr.Live) != 1 || rr.Live[0].key != keyA {
		t.Fatalf("want only the pre-damage prefix, got %+v", rr.Live)
	}
}

// TestJournalReplayUnknownRecordType: a record from a newer version is
// skipped, and replay continues past it — unknown is not malformed.
func TestJournalReplayUnknownRecordType(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	specA, keyA := jspec(t, "fig7", 0.05)
	jl.append(journalRecord{Type: recSubmitted, Job: keyA, Spec: specA})
	jl.append(journalRecord{Type: "vacuumed", Job: "whatever"})
	jl.append(journalRecord{Type: recDone, Job: keyA})

	rr, err := replayJournal(jl.path())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Truncated {
		t.Fatal("unknown type treated as damage")
	}
	if rr.Skipped != 1 || rr.Records != 3 {
		t.Fatalf("replay = %+v, want 3 records with 1 skipped", rr)
	}
	if len(rr.Live) != 0 {
		t.Fatalf("done record after the unknown one was lost: live = %+v", rr.Live)
	}
}

// TestJournalReplayBadShape: well-formed JSON whose content is unusable
// (a submission with no spec, transitions for unknown jobs) is skipped
// without ending the replay.
func TestJournalReplayBadShape(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	specA, keyA := jspec(t, "fig7", 0.05)
	jl.append(journalRecord{Type: recSubmitted, Job: "nospec"})
	jl.append(journalRecord{Type: recStarted, Job: "neversubmitted"})
	jl.append(journalRecord{Type: recDone, Job: "neversubmitted"})
	jl.append(journalRecord{Type: recSubmitted, Job: keyA, Spec: specA})

	rr, err := replayJournal(jl.path())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Truncated || rr.Skipped != 3 {
		t.Fatalf("replay = %+v, want 3 skipped and no truncation", rr)
	}
	if len(rr.Live) != 1 || rr.Live[0].key != keyA {
		t.Fatalf("live = %+v", rr.Live)
	}
}

// TestJournalRewrite compacts the WAL to a live set and checks the result
// replays to exactly that set and stays appendable.
func TestJournalRewrite(t *testing.T) {
	jl, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jl.close()
	specA, keyA := jspec(t, "fig7", 0.05)
	specB, keyB := jspec(t, "fig12", 0.05)
	for i := 0; i < 10; i++ {
		jl.append(journalRecord{Type: recSubmitted, Job: keyA, Spec: specA})
		jl.append(journalRecord{Type: recCancelled, Job: keyA})
	}
	if err := jl.rewrite([]journalRecord{{Type: recSubmitted, Job: keyB, Spec: specB}}); err != nil {
		t.Fatal(err)
	}
	if jl.appends != 0 {
		t.Fatalf("appends not reset by rewrite: %d", jl.appends)
	}
	if err := jl.append(journalRecord{Type: recStarted, Job: keyB}); err != nil {
		t.Fatalf("append after rewrite failed: %v", err)
	}
	rr, err := replayJournal(jl.path())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Live) != 1 || rr.Live[0].key != keyB || !rr.Live[0].started || rr.Records != 2 {
		t.Fatalf("compacted replay = %+v, want just %s started", rr, keyB)
	}
}

// TestCompactionAfterTerminalRecordDropsFinishedJob drives a failed job's
// terminal record to the compactEvery-th append. The compaction it
// triggers must not write the finished job back as submitted + started,
// which would requeue it after a restart, and the job must no longer read
// as running once Wait returns.
func TestCompactionAfterTerminalRecordDropsFinishedJob(t *testing.T) {
	dir := t.TempDir()
	runner := func(*JobSpec, exp.Env) (string, error) { return "", errors.New("simulation failed") }
	s, err := New(Config{Runner: runner, CacheDir: dir, Logger: telemetry.DiscardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.mu.Lock()
	// The job's submitted and started records are the next two appends,
	// so its failed record is the compactEvery-th.
	s.jl.appends = compactEvery - 3
	wal := s.jl.path()
	s.mu.Unlock()

	sp, _ := jspec(t, "fig7", 0.05)
	key, _, _, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), key); err == nil {
		t.Fatal("job succeeded, want the runner's failure")
	}
	if got := s.Stats().Running; got != 0 {
		t.Fatalf("Stats().Running = %d once Wait returned, want 0", got)
	}
	rr, err := replayJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Live) != 0 || rr.Records != 0 {
		t.Fatalf("compacted WAL holds %d records naming %d live jobs, want none", rr.Records, len(rr.Live))
	}
}
