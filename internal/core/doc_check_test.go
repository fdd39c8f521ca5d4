package core

import (
	"testing"

	"repro/internal/doccheck"
)

// TestExportedIdentifiersDocumented fails on any exported identifier in
// this package that lacks a doc comment. CI runs it as the doc-presence
// gate (go vet covers the rest of the tree).
func TestExportedIdentifiersDocumented(t *testing.T) {
	doccheck.Exported(t, ".")
}
