package fault

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, the reader behind every
// -faults file. It must never panic, and a schedule it accepts must load
// back equal once written with Write. The seed corpus is under
// testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("Write of an accepted schedule: %v", err)
		}
		if back, err := Load(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(s, back) {
			t.Fatalf("%s loads back as %+v, %v; want %+v", buf.Bytes(), back, err, s)
		}
	})
}
