package main

import (
	"slices"
	"strings"
	"testing"

	"memnet/internal/exp"
)

func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		list string
		want []string // nil: the list must be rejected
	}{
		{"fig12", []string{"fig12"}},
		{"fig17", []string{"fig16"}},
		{"fig16,fig17", []string{"fig16"}},
		{" fig12 , fig7 ", []string{"fig7", "fig12"}},
		{"all", exp.Names()},
		{"fig12,all", exp.Names()},
		{"fig12,fig99", nil},
		{"all,fig99", nil},
		{"", nil},
	}
	for _, tc := range cases {
		exps, err := selectExperiments(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted, want an error", tc.list)
			} else if !strings.Contains(err.Error(), "fig12") {
				t.Errorf("%q: error %q does not list the known experiments", tc.list, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		var got []string
		for _, e := range exps {
			got = append(got, e.Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q selects %v, want %v", tc.list, got, tc.want)
		}
	}
}
