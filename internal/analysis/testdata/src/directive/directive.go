// Package directive is a spawnvet golden-test fixture for the
// //spawnvet: comment grammar itself: malformed directives are
// reported by the pseudo-analyzer "directive" and suppress nothing.
package directive

import "math/rand"

// MissingJustification: the allow needs a reason, so the directive is
// reported AND the global rand draw below it still fires.
func MissingJustification() int {
	//spawnvet:allow determinism
	return rand.Intn(10)
}

// UnknownAnalyzer: the analyzer list must name real analyzers.
func UnknownAnalyzer() int {
	//spawnvet:allow speling fixture justification text
	return rand.Intn(10)
}

// UnknownDirective: only allow and hotpath exist.
func UnknownDirective() int {
	//spawnvet:ignore determinism because reasons
	return 1
}

// WellFormed suppresses cleanly: only the malformed ones above report.
func WellFormed() int {
	//spawnvet:allow determinism fixture: valid directive, valid reason
	return rand.Intn(10)
}
