package main

import (
	"strings"
	"testing"
)

func TestCheckExperiment(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"all", true},
		{"fig5", true},
		{"fig8", true},
		{"fig9", true},
		{"multiflow", true},
		{"blk", true},
		{"latency", true},
		{"tenant", true},
		{"security", true},
		{"", false},
		{"fig7", false},
		{"FIG8", false},
		{"blk ", false},
		{"fig8,blk", false},
	} {
		err := checkExperiment(tc.name)
		if tc.ok {
			if err != nil {
				t.Errorf("%q: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q accepted", tc.name)
			continue
		}
		// The error names every valid choice, so the user can fix the typo.
		for _, valid := range append(experiments, "all") {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("%q: error %q does not list %q", tc.name, err, valid)
			}
		}
	}
}
