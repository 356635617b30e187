package mem

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReqsRecycleAndGuard checks the request free list: a recycled request
// comes back zeroed, the ledger counts live requests, and releasing a
// request twice or finishing one after release panics.
func TestReqsRecycleAndGuard(t *testing.T) {
	var p Reqs
	r := p.Get()
	r.Addr, r.Write, r.Src, r.Owner = 0x80, true, 3, "issuer"
	finished := 0
	r.Done = func(*Req) { finished++ }
	r.Finish()
	if finished != 1 || p.Live() != 1 {
		t.Fatalf("finished %d, live %d; want 1, 1", finished, p.Live())
	}
	p.Put(r)
	if p.Live() != 0 {
		t.Fatalf("live = %d after release, want 0", p.Live())
	}
	mustPanic(t, "double release", func() { p.Put(r) })
	mustPanic(t, "finish after release", func() { r.Finish() })
	again := p.Get()
	if again != r || again.Addr != 0 || again.Write || again.Src != 0 || again.Owner != nil || again.Done != nil {
		t.Fatalf("recycled request %+v, want the released one, zeroed", again)
	}
}
