package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/serve"
	"memnet/internal/serve/cachedir"
)

// plantEntry writes one pending entry the way the server writes them: the
// crash-tolerance contract is the on-disk format, so these tests build
// the pending store by hand exactly as a dead process would have left it.
func plantEntry(t *testing.T, dir, key string, seq int, started bool, spec *serve.JobSpec) {
	t.Helper()
	// A canonical spec and two plain values always marshal.
	body, _ := json.Marshal(map[string]any{"seq": seq, "started": started, "spec": spec})
	if err := pendingStore(t, dir).Put(key, body); err != nil {
		t.Fatal(err)
	}
}

func pendingStore(t *testing.T, dir string) *cachedir.Store {
	t.Helper()
	st, err := cachedir.Open(filepath.Join(dir, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pending lists the pending entries under dir as key → "seq/started".
func pending(t *testing.T, dir string) map[string]string {
	t.Helper()
	st := pendingStore(t, dir)
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, key := range keys {
		var e struct {
			Seq     int
			Started bool
		}
		if body, ok, err := st.Get(key); !ok || json.Unmarshal(body, &e) != nil {
			t.Fatalf("entry %s unreadable: %v", key, err)
		}
		out[key] = fmt.Sprintf("%d/%v", e.Seq, e.Started)
	}
	return out
}

func canon(t *testing.T, sp *serve.JobSpec) (*serve.JobSpec, string) {
	t.Helper()
	if err := sp.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	return sp, sp.Key()
}

// TestRestartRecovery is the crash story end to end, minus the process
// boundary (CI covers that with a real kill -9). A dead server left one
// job mid-run, one still queued under a key its spec does not hash to,
// one entry torn and one that does not decode. Startup re-queues both
// jobs in submission order, re-keys the second, and drops only the
// damaged entries. The store lists keys lexically and the queued job's
// stray key sorts first, so recovery that ignored seq would run it first.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	specA, keyA := canon(t, spec("fig7", 0.05, "alice"))
	specB, keyB := canon(t, spec("fig12", 0.05, "bob"))
	stale, torn := strings.Repeat("0", 64), strings.Repeat("1", 64)
	plantEntry(t, dir, keyA, 41, true, specA)
	plantEntry(t, dir, stale, 42, false, specB)
	plantEntry(t, dir, torn, 40, false, specB)
	if err := os.Truncate(filepath.Join(dir, "pending", "11", torn), 100); err != nil {
		t.Fatal(err)
	}
	if err := pendingStore(t, dir).Put(strings.Repeat("2", 64), []byte("not an entry")); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan string, 3)
	runner, lg := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})
	defer s.Shutdown(ctxT(t))
	<-started // the interrupted job runs again and holds the dispatcher
	keyC, _, _, err := s.Submit(spec("fig14", 0.05, ""))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh admission numbers on above the largest recovered seq.
	want := map[string]string{keyA: "41/true", keyB: "42/false", keyC: "43/false"}
	if got, n := pending(t, dir), s.Stats().Recovered; fmt.Sprint(got) != fmt.Sprint(want) || n != 2 {
		t.Fatalf("pending entries %v after %d recovered, want %v after 2", got, n, want)
	}
	close(gate)
	for _, key := range []string{keyA, keyB, keyC} {
		if _, err := s.Wait(ctxT(t), key); err != nil {
			t.Fatalf("job %s did not complete: %v", key, err)
		}
	}
	if got := lg.snapshot(); len(got) != 3 || got[0] != "fig7/0.05" || got[1] != "fig12/0" {
		t.Fatalf("jobs ran %v, want fig7 then fig12 (submission order)", got)
	}
	if got := pending(t, dir); len(got) != 0 {
		t.Fatalf("entries left once every job finished: %v", got)
	}
}

// TestRestartRevivesCachedResult: a job whose result reached the disk
// cache before the crash — but whose entry was not yet deleted — is
// revived as done at startup without re-running anything.
func TestRestartRevivesCachedResult(t *testing.T) {
	dir := t.TempDir()
	specA, keyA := canon(t, spec("fig7", 0.05, ""))
	disk, err := cachedir.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(keyA, []byte("the cached result\n")); err != nil {
		t.Fatal(err)
	}
	plantEntry(t, dir, keyA, 1, true, specA)

	runner, lg := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})
	defer s.Shutdown(ctxT(t))

	if out, err := s.Wait(ctxT(t), keyA); err != nil || out != "the cached result\n" {
		t.Fatalf("revived result = %q, %v", out, err)
	}
	if got := lg.snapshot(); len(got) != 0 {
		t.Fatalf("revived job re-ran: %v", got)
	}
	if got := s.Stats().Recovered; got != 1 || len(pending(t, dir)) != 0 {
		t.Fatalf("Stats().Recovered = %d with entries %v left, want 1 and none", got, pending(t, dir))
	}
}

// TestJournalTerminalRecordsPreventReplay: a cleanly finished job deletes
// its pending entry, so the next start has nothing to recover — restarts
// are idempotent.
func TestJournalTerminalRecordsPreventReplay(t *testing.T) {
	dir := t.TempDir()
	runner, lg := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})
	submitWait(t, s, spec("fig7", 0.05, ""))
	if err := s.Shutdown(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if got := pending(t, dir); len(got) != 0 {
		t.Fatalf("finished job left pending entries %v", got)
	}

	runner2, lg2 := countingRunner(nil, nil)
	s2 := newServer(t, serve.Config{Runner: runner2, CacheDir: dir})
	defer s2.Shutdown(ctxT(t))
	if got := s2.Stats().Recovered; got != 0 {
		t.Fatalf("clean shutdown still recovered %d jobs", got)
	}
	if got := lg2.snapshot(); len(got) != 0 {
		t.Fatalf("restart re-ran finished work: %v (first run: %v)", got, lg.snapshot())
	}
}

// TestCompactionAfterTerminalRecordDropsFinishedJob: a job that fails
// reads as running no more once Wait returns, and its terminal state
// drops it from the durable queue — no pending entry names it.
func TestCompactionAfterTerminalRecordDropsFinishedJob(t *testing.T) {
	dir := t.TempDir()
	runner := func(*serve.JobSpec, exp.Env) (string, error) { return "", errors.New("simulation failed") }
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})
	defer s.Shutdown(ctxT(t))

	key, _, _, err := s.Submit(spec("fig7", 0.05, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err == nil {
		t.Fatal("job succeeded, want the runner's failure")
	}
	if got := s.Stats().Running; got != 0 {
		t.Fatalf("Stats().Running = %d once Wait returned, want 0", got)
	}
	if got := pending(t, dir); len(got) != 0 {
		t.Fatalf("failed job left pending entries %v, want none", got)
	}
}

// TestCancelQueuedJob: cancelling a queued job is immediate and terminal,
// unblocks waiters with a cancelled error, deletes its pending entry, and
// does not poison the cache — resubmitting the same spec starts fresh work.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, _ := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})

	keyA, _, _, err := s.Submit(spec("fig7", 0.05, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // A is running and holding the dispatcher
	keyB, state, _, err := s.Submit(spec("fig12", 0.05, "alice"))
	if err != nil || state != "queued" {
		t.Fatalf("Submit B = %q, %v", state, err)
	}

	state, err = s.Cancel(keyB, "operator says no")
	if err != nil || state != "cancelled" {
		t.Fatalf("Cancel queued = %q, %v", state, err)
	}
	if _, err := s.Wait(ctxT(t), keyB); err == nil || !strings.Contains(err.Error(), "operator says no") {
		t.Fatalf("Wait on cancelled job: %v, want the cancel reason", err)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled and empty queue", st)
	}
	// Dispatch rewrote the running job's entry as started.
	if got, want := pending(t, dir), map[string]string{keyA: "1/true"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pending entries %v, want %v", got, want)
	}

	// Cancel is idempotent; resubmission starts fresh.
	if state, err := s.Cancel(keyB, "again"); err != nil || state != "cancelled" {
		t.Fatalf("second Cancel = %q, %v", state, err)
	}
	_, state, reused, err := s.Submit(spec("fig12", 0.05, "alice"))
	if err != nil || reused || state != "queued" {
		t.Fatalf("resubmit after cancel = %q reused=%v err=%v, want fresh queued job", state, reused, err)
	}

	close(gate)
	if _, err := s.Wait(ctxT(t), keyA); err != nil {
		t.Fatal(err)
	}
	s.Shutdown(ctxT(t))
}

// TestCancelRunningJob: cancelling the in-flight job trips its stop latch
// and, when the runner unwinds with an error, the job lands cancelled —
// not failed — carrying the cancel reason. Its pending entry goes, as a
// failed job's does.
func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 1)
	runner := func(sp *serve.JobSpec, _ exp.Env) (string, error) {
		started <- sp.Experiment
		<-gate
		return "", errors.New("sweep torn down")
	}
	s := newServer(t, serve.Config{Runner: runner, CacheDir: dir})
	defer s.Shutdown(ctxT(t))

	key, _, _, err := s.Submit(spec("fig7", 0.05, ""))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	state, err := s.Cancel(key, "cancelled by test")
	if err != nil || state != "running" {
		t.Fatalf("Cancel running = %q, %v (want running: teardown is cooperative)", state, err)
	}
	close(gate)
	_, err = s.Wait(ctxT(t), key)
	if err == nil || !strings.Contains(err.Error(), "cancelled by test") {
		t.Fatalf("Wait = %v, want the cancel reason", err)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Failed != 0 || len(pending(t, dir)) != 0 {
		t.Fatalf("stats = %+v, entries %v: a cancelled run must not count as failed, nor stay pending", st, pending(t, dir))
	}
	key, _, _, err = s.Submit(spec("fig12", 0.05, ""))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Wait(ctxT(t), key); err == nil || s.Stats().Failed != 1 || len(pending(t, dir)) != 0 {
		t.Fatalf("Wait = %v with entries %v, want a failure that leaves none", err, pending(t, dir))
	}
}

// TestDeadlineCancelsRealRun drives the whole cooperative-cancel path on
// a real simulation: a short max_run_seconds trips the job's stop latch
// mid-sweep and the engine unwinds at the next event boundary — well
// before the experiment could finish.
func TestDeadlineCancelsRealRun(t *testing.T) {
	s := newServer(t, serve.Config{}) // RegistryRunner
	defer s.Shutdown(ctxT(t))

	sp := spec("fig15", 0.5, "")
	sp.MaxRunSeconds = 0.1
	key, _, _, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Wait(ctxT(t), key)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("Wait = %v, want a deadline-exceeded cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("teardown took %s; cancellation is not cooperative enough", elapsed)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want the deadline counted as cancelled", st)
	}
}

// TestDeadlineDoesNotAffectIdentity: max_run_seconds is an execution
// constraint, not part of what the job computes — it must not split the
// cache.
func TestDeadlineDoesNotAffectIdentity(t *testing.T) {
	a, keyA := canon(t, spec("fig7", 0.05, ""))
	b := spec("fig7", 0.05, "")
	b.MaxRunSeconds = 30
	_, keyB := canon(t, b)
	if keyA != keyB {
		t.Fatalf("max_run_seconds changed the cache key: %s vs %s (%+v)", keyA, keyB, a)
	}
}

// TestAdmissionShed: once the run-duration average is warm, a submission
// whose projected wait exceeds MaxQueueDelay is shed with an
// OverloadError carrying the estimate, instead of being queued.
func TestAdmissionShed(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	slow := func(sp *serve.JobSpec, _ exp.Env) (string, error) {
		started <- sp.Experiment
		if sp.Experiment != "fig7" {
			<-gate
		}
		time.Sleep(50 * time.Millisecond)
		return "ok\n", nil
	}
	s := newServer(t, serve.Config{Runner: slow, QueueCap: 64, MaxQueueDelay: 80 * time.Millisecond})
	defer s.Shutdown(ctxT(t))

	// Warm the average: one fast job end to end (~50ms EWMA).
	submitWait(t, s, spec("fig7", 0.05, ""))
	<-started // drain its start token

	// Fill: one running + one queued. Estimated wait for a third is
	// ~2×50ms > 80ms, so it sheds.
	k1, _, _, err := s.Submit(spec("fig12", 0.05, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	k2, _, _, err := s.Submit(spec("fig14", 0.05, "b"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s.Submit(spec("fig15", 0.05, "c"))
	var ov *serve.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("third submission returned %v, want OverloadError", err)
	}
	if ov.Estimate <= 0 {
		t.Fatalf("shed estimate = %s, want positive", ov.Estimate)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("Stats().Shed = %d, want 1", got)
	}

	close(gate)
	for _, k := range []string{k1, k2} {
		if _, err := s.Wait(ctxT(t), k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelHTTP covers the DELETE /v1/jobs/{id} surface: 404 for an
// unknown id, 200 + terminal state for a queued job, 409 for a finished
// one, and 410 from the result endpoint afterwards.
func TestCancelHTTP(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, _ := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	del := func(id string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp, body
	}

	if resp, _ := del(strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}

	keyA, _, _, err := s.Submit(spec("fig7", 0.05, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	keyB, _, _, err := s.Submit(spec("fig12", 0.05, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := del(keyB); resp.StatusCode != http.StatusOK || body["state"] != "cancelled" {
		t.Fatalf("DELETE queued job = %d %v, want 200 cancelled", resp.StatusCode, body)
	}
	if resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, keyB)); err != nil || resp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job = %v %v, want 410", resp, err)
	}

	close(gate)
	if _, err := s.Wait(ctxT(t), keyA); err != nil {
		t.Fatal(err)
	}
	if resp, _ := del(keyA); resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished job = %d, want 409", resp.StatusCode)
	}
	s.Shutdown(ctxT(t))
}
