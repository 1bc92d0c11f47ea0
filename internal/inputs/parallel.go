package inputs

import (
	"runtime"
	"sync"
)

// minChunk is the fewest elements a worker is given: below it a
// goroutine's start and join cost more than the elements it takes over.
const minChunk = 4096

// workers returns how many workers parallelFor splits n elements
// across: one per GOMAXPROCS, no more than leave each minChunk elements,
// and at least one.
func workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minChunk))
}

// parallelFor splits [0, n) into one contiguous range per worker (at
// most n of them), calls body on each, and returns when every call
// has. The first range runs on the calling goroutine, so one worker
// runs body(0, n) inline and starts no goroutine. body must write only
// the elements of its own range and read nothing another range writes;
// each element is then computed exactly as it is alone, whatever the
// worker count.
func parallelFor(n, workers int, body func(lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(k*n/workers, (k+1)*n/workers)
		}()
	}
	body(0, n/workers)
	wg.Wait()
}
