//go:build unix

package buildtags

// Unix is defined only on unix hosts: the unix build tag must evaluate
// true there, so the loader keeps this file.
const Unix = 1
