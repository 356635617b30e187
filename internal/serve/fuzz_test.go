package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobSpec feeds arbitrary request bodies through the job-spec path the
// HTTP handlers use: decodeSpec, then Canonicalize. Restart recovery
// decodes a stored canonical spec, canonicalizes it again and checks its
// key against the entry's, so for every accepted spec a second
// Canonicalize must change nothing and a JSON round trip must keep the
// key. The seed corpus is under testdata/fuzz/FuzzJobSpec.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		spec, err := decodeSpec(httptest.NewRecorder(), req)
		if err != nil {
			return
		}
		if err := spec.Canonicalize(); err != nil {
			return
		}
		key := spec.Key()
		once, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal canonical spec: %v", err)
		}
		if err := spec.Canonicalize(); err != nil {
			t.Fatalf("second Canonicalize rejected %s: %v", once, err)
		}
		if twice, _ := json.Marshal(spec); !bytes.Equal(once, twice) {
			t.Fatalf("Canonicalize is not idempotent:\n%s\n%s", once, twice)
		}
		var back JobSpec
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("canonical spec %s does not decode: %v", once, err)
		}
		if err := back.Canonicalize(); err != nil {
			t.Fatalf("round-tripped spec %s rejected: %v", once, err)
		}
		if back.Key() != key {
			t.Fatalf("JSON round trip changed the key of %s", once)
		}
	})
}
