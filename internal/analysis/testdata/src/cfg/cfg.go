// Package cfg is the structure fixture for the control-flow graph
// goldens: each function exercises one edge class the builder must get
// right (defer routing, labeled break/continue, switch fallthrough,
// for-range back-edges, backward and forward goto).
package cfg

func release() {}

// deferred routes every exit through the synthetic defers block.
func deferred(n int) int {
	defer release()
	if n > 0 {
		return n
	}
	n++
	return -n
}

// labeled jumps out of (and over) the inner loop by label.
func labeled(rows [][]int) int {
	total := 0
outer:
	for i := 0; i < len(rows); i++ {
		for _, v := range rows[i] {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			total += v
		}
	}
	return total
}

// fallthru links case 1 straight into case 2's block.
func fallthru(n int) string {
	switch n {
	case 0:
		return "zero"
	case 1:
		fallthrough
	case 2:
		return "small"
	default:
		return "big"
	}
}

// split stages the reaching-definition probe: inside the branch only q
// reaches x; at the join both parameters do.
func split(a bool, p, q int) (int, int) {
	x := p
	y := 0
	if a {
		x = q
		y = x + 1
	}
	return x, y
}

// ranged binds per-iteration values on the range head.
func ranged(xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return sum
}

func use(int) {}

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
