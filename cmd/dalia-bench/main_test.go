package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExperimentListIsCheckedBeforeRunning: every name of an -exp list must
// be known, or the command exits 2 with the known experiments listed and
// runs nothing — a typo or a retired name beside a valid one must not
// silently drop that experiment's rows.
func TestExperimentListIsCheckedBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		code int
		ran  []string // experiment headers expected on stdout, in order
	}{
		{"table1", 0, []string{"table1"}},
		{" Table4 ,table1", 0, []string{"table1", "table4"}},
		{"table1,table1", 0, []string{"table1"}},
		{"fig5,pintime", 2, nil},
		{"table1,tabel4", 2, nil},
		{"pintime", 2, nil},
		{"hybrid", 2, nil},
		{"recovery", 2, nil},
		{"table1,", 2, nil},
		{"", 2, nil},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp=" + tc.exp}, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("-exp=%q: exit %d, want %d (stderr %q)", tc.exp, code, tc.code, stderr.String())
			continue
		}
		var ran []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if name, ok := strings.CutPrefix(line, "--- "); ok {
				ran = append(ran, strings.SplitN(name, ":", 2)[0])
			}
		}
		if strings.Join(ran, ",") != strings.Join(tc.ran, ",") {
			t.Errorf("-exp=%q: ran %v, want %v", tc.exp, ran, tc.ran)
		}
		if tc.code == 2 && !strings.Contains(stderr.String(), "known: table1 table4") {
			t.Errorf("-exp=%q: stderr does not list the known experiments: %q", tc.exp, stderr.String())
		}
	}
}
