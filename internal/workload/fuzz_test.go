package workload

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, the parser behind
// memnetsim -replay, which must reject bad input without panicking. The
// seed corpus is under testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadTrace(bytes.NewReader(data))
	})
}
