package main

import (
	"strings"
	"testing"

	"tugal/internal/spec"
)

// TestExampleSuite: what -example prints is a suite LoadSuite accepts,
// with every topology in the family-qualified form.
func TestExampleSuite(t *testing.T) {
	suite, err := spec.LoadSuite(strings.NewReader(exampleSuite))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range suite.Experiments {
		if !strings.HasPrefix(e.Topology, "dfly(") {
			t.Errorf("%s: topology %q", e.Name, e.Topology)
		}
	}
}
