// Package errwrap is a spawnvet golden-test fixture: cross-layer
// errors wrap with %w and match with errors.Is/As.
package errwrap

import (
	"errors"
	"fmt"
)

// ErrSentinel is a package sentinel error.
var ErrSentinel = errors.New("sentinel")

// Flatten loses the error chain through %v: flagged.
func Flatten(err error) error {
	return fmt.Errorf("loading config: %v", err)
}

// FlattenString loses the chain through %s: flagged.
func FlattenString(err error) error {
	return fmt.Errorf("parsing spec: %s", err)
}

// Wrap keeps the chain: not flagged.
func Wrap(err error) error {
	return fmt.Errorf("loading config: %w", err)
}

// NonError formats a plain value with %v: not flagged.
func NonError(n int) error {
	return fmt.Errorf("bad count %v", n)
}

// CompareEq matches a sentinel with ==: flagged.
func CompareEq(err error) bool {
	return err == ErrSentinel
}

// CompareIs matches through the chain: not flagged.
func CompareIs(err error) bool {
	return errors.Is(err, ErrSentinel)
}

// NilCheck compares against nil: not flagged.
func NilCheck(err error) bool {
	return err != nil
}

// MessageMatch matches by message text: flagged.
func MessageMatch(err error) bool {
	return err.Error() == "sentinel"
}

// AllowedFlatten carries a suppression directive: not flagged.
func AllowedFlatten(err error) error {
	//spawnvet:allow errwrap fixture: terminal message, chain ends here
	return fmt.Errorf("final report: %v", err)
}
