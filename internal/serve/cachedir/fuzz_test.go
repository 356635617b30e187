package cachedir

import (
	"bytes"
	"testing"
)

// FuzzUnframe feeds arbitrary bytes to unframe, the check every blob read
// from disk passes before it is trusted: results and memnetd's pending
// entries alike. It must never panic, a blob it accepts must re-frame to
// the same bytes, and any body must survive frame and unframe. The seed
// corpus is under testdata/fuzz/FuzzUnframe.
func FuzzUnframe(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if body, err := unframe(raw); err == nil && !bytes.Equal(frame(body), raw) {
			t.Fatalf("accepted blob %q does not re-frame to itself", raw)
		}
		if body, err := unframe(frame(raw)); err != nil || !bytes.Equal(body, raw) {
			t.Fatalf("unframe(frame(%q)) = %q, %v", raw, body, err)
		}
	})
}
