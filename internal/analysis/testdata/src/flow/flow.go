// Package flow is the fixture for the origin layer's definition
// queries: each function stages one shape where a flow-sensitive
// analysis would tell definitions apart and the flow-insensitive layer
// deliberately does not.
package flow

func use(int) {}

// split assigns x on one path only: every use of x sees both p and q,
// inside the branch as well as after it.
func split(a bool, p, q int) int {
	x := p
	y := 0
	if a {
		x = q
		y = x + 1
	}
	use(x)
	return y
}

// backjump loops through a backward goto: the redefinition of x below
// the label flows back to it, so use(x) sees both p and q.
func backjump(p, q, n int) {
	x := p
	i := 0
again:
	use(x)
	x = q
	i++
	if i < n {
		goto again
	}
}

// forwardjump skips the reassignment with a forward goto: p reaches the
// label along the jump, q along the fall-through.
func forwardjump(skip bool, p, q int) {
	x := p
	if skip {
		goto done
	}
	x = q
done:
	use(x)
}
