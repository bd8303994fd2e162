package main

import (
	"strings"
	"testing"
)

func TestParseTables(t *testing.T) {
	got, err := parseTables(" 5, 7 ,checks")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got["5"] || !got["7"] || !got["checks"] {
		t.Errorf("parseTables(\" 5, 7 ,checks\") = %v", got)
	}
	for _, n := range tableNames {
		if _, err := parseTables(n); err != nil {
			t.Errorf("documented name %q rejected: %v", n, err)
		}
	}
	for spec, bad := range map[string][]string{
		"bogus":          {`"bogus"`},
		"5,bogus,7,smpp": {`"bogus"`, `"smpp"`},
		"":               {`""`},
		"7,":             {`""`},
	} {
		if got, err := parseTables(spec); err == nil {
			t.Errorf("parseTables(%q) = %v, want an error", spec, got)
		} else {
			for _, b := range bad {
				if !strings.Contains(err.Error(), b) {
					t.Errorf("parseTables(%q) error %q does not name %s", spec, err, b)
				}
			}
		}
	}
}
