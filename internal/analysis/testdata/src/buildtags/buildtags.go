// Package buildtags is a loader fixture: ignored.go (//go:build ignore)
// and foreign_plan9.go (a foreign GOOS file-name suffix) are excluded
// from the host build and would not type-check; unix.go (//go:build
// unix) is part of it on every unix host.
package buildtags

// Kept is defined in the one file every host builds.
const Kept = 1
