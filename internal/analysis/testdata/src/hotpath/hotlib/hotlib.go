// Package hotlib is the cross-package half of the hotpath fixture. It
// has no hot-path roots of its own: Label is hot only because
// hotpath.(GPU).Run calls it.
package hotlib

import "fmt"

// Label formats on every call.
func Label(n int) string {
	s := fmt.Sprint(n) // flagged through the caller's chain
	return s
}
