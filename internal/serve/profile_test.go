package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memnet/internal/exp"
	"memnet/internal/prof"
	"memnet/internal/serve"
)

// profileRunner runs an experiment of two real (tiny) simulations under
// the job's Env, so a profiling server collects one profile per run.
func profileRunner(sp *serve.JobSpec, env exp.Env) (string, error) {
	if _, err := env.Placement(0.05, []string{"VA"}); err != nil {
		return "", err
	}
	return "ran\n", nil
}

// TestProfileEndpoint checks the served-profile path end to end: a
// profiling server collects one "memnet-prof/v1" document per run of the
// job and serves them as a JSON array.
func TestProfileEndpoint(t *testing.T) {
	s := newServer(t, serve.Config{Runner: profileRunner, Profile: true})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key, _, _, err := s.Submit(spec("fig7", 0.1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []prof.Profile
	if err := decodeJSON(resp, &profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles, want 2 (one per run)", len(profiles))
	}
	for i, p := range profiles {
		if p.Schema != prof.Schema {
			t.Fatalf("profile %d has schema %q, want %q", i, p.Schema, prof.Schema)
		}
		if p.Net == nil || len(p.Net.Classes) == 0 {
			t.Fatalf("profile %d has no network section", i)
		}
	}
}

// TestProfileEndpointDisabled pins the 404 contract: without server-side
// profiling a finished job has a result but no profile.
func TestProfileEndpointDisabled(t *testing.T) {
	runner, _ := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key, _, _, err := s.Submit(spec("fig7", 0.1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), key); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("profile of an unprofiled job returned %d, want 404", resp.StatusCode)
	}

	// Unknown and unfinished jobs 404 too.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + strings.Repeat("0", 64) + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("profile of an unknown job returned %d, want 404", resp2.StatusCode)
	}
}
