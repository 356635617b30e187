package core

import (
	"strings"
	"testing"
)

// TestAuditOnRunsCleanAndMatchesOff exercises the full stack with the audit
// layer explicitly enabled and checks (a) a clean run registers checkers for
// every subsystem and reports no violations, and (b) the figures are
// byte-identical to an audits-off run — the checkers observe state at event
// boundaries but never schedule events.
func TestAuditOnRunsCleanAndMatchesOff(t *testing.T) {
	for _, arch := range []Arch{PCIe, UMN} {
		cfgOn := tiny(arch, "BP")
		cfgOn.Audit = AuditOn
		sysOn, err := NewSystem(cfgOn)
		if err != nil {
			t.Fatal(err)
		}
		if sysOn.Probe().Audit == nil || sysOn.Probe().Audit.NumCheckers() == 0 {
			t.Fatalf("%v: AuditOn produced no registered checkers", arch)
		}
		resOn, err := sysOn.Execute()
		if err != nil {
			t.Fatalf("%v: audited run failed: %v", arch, err)
		}
		if n := sysOn.Probe().Audit.Check(); n != 0 {
			t.Fatalf("%v: %d violations after clean run: %v",
				arch, n, sysOn.Probe().Audit.Violations())
		}

		cfgOff := tiny(arch, "BP")
		cfgOff.Audit = AuditOff
		sysOff, err := NewSystem(cfgOff)
		if err != nil {
			t.Fatal(err)
		}
		if sysOff.Probe().Audit != nil {
			t.Fatalf("%v: AuditOff still built a registry", arch)
		}
		resOff, err := sysOff.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if resOn.Total != resOff.Total || resOn.Kernel != resOff.Kernel ||
			resOn.H2D != resOff.H2D || resOn.Host != resOff.Host ||
			resOn.D2H != resOff.D2H {
			t.Fatalf("%v: audited results diverge: %+v vs %+v", arch, resOn, resOff)
		}
	}
}

// TestAuditViolationSurfacesAsRunError registers a checker that always
// fires and checks the run fails with an error naming the component and
// the phase where the violation was caught.
func TestAuditViolationSurfacesAsRunError(t *testing.T) {
	cfg := tiny(GMN, "VA")
	cfg.Audit = AuditOn
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Probe().Audit.Register("tamper", func(report func(string)) {
		report("injected violation")
	})
	_, err = s.Execute()
	if err == nil {
		t.Fatal("tampered run completed without an audit error")
	}
	if !strings.Contains(err.Error(), "tamper") ||
		!strings.Contains(err.Error(), "injected violation") {
		t.Fatalf("audit error does not name the component: %v", err)
	}
}
