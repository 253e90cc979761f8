package main

import (
	"strings"
	"testing"
)

func TestParseConfig(t *testing.T) {
	def := defaultConfig()
	overlaid := def
	overlaid.Nv, overlaid.Family, overlaid.HyperUncertainty = 2, "poisson", false
	cases := []struct {
		name    string
		raw     string
		want    config
		wantErr string // substring of the error; "" = success
	}{
		{"empty object keeps defaults", `{}`, def, ""},
		{"overlay on defaults", `{"nv": 2, "family": "poisson", "hyperUncertainty": false}`, overlaid, ""},
		{"removed key", `{"nv": 2, "precision": "mixed"}`, config{}, `"precision"`},
		{"typo", `{"meshNX2": 7}`, config{}, `"meshNX2"`},
		{"malformed", `{"nv": `, config{}, "unexpected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseConfig([]byte(tc.raw))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
