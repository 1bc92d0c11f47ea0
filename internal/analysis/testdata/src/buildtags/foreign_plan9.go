// This file is excluded on every host but Plan 9 by its file-name
// suffix alone: it has no //go:build line, references an undefined
// symbol, and would fail the type check if the loader parsed it.
package buildtags

var foreign = undefinedOnPlan9
