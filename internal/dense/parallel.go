package dense

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the number of goroutines a single kernel call may fan
// out to. It defaults to GOMAXPROCS and can be adjusted globally (e.g. the
// communicator simulator pins kernels of one simulated rank to one worker so
// per-rank timings stay meaningful).
var maxWorkers int64 = int64(runtime.GOMAXPROCS(0))

// SetMaxWorkers sets the kernel-level parallelism bound. n < 1 resets to
// GOMAXPROCS. It returns the previous value.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(atomic.SwapInt64(&maxWorkers, int64(n)))
}

// MaxWorkers returns the current kernel-level parallelism bound.
func MaxWorkers() int { return int(atomic.LoadInt64(&maxWorkers)) }

// parallelRows is the work-splitting threshold: kernels operating on fewer
// result rows than this stay serial (goroutine overhead would dominate).
const parallelRows = 128

// ranger is the body of a parallel loop: run processes [lo, hi). The
// kernels implement it on pooled job values (gemmJob, trsmJob, gemvJob), so
// a fan-out captures no closure and allocates nothing.
type ranger interface{ run(lo, hi int) }

// chunk is one contiguous range of a fan-out, handed to the goroutine that
// fanOut starts for it.
type chunk struct {
	body   ranger
	lo, hi int
	done   *sync.WaitGroup
}

// chunks carries fanned-out ranges to runChunk. Every send is followed by
// exactly one `go runChunk()`, so a receiver never blocks and a full buffer
// only delays the sender until a started goroutine drains it. A call sends
// at most MaxWorkers − 1 chunks; the buffer holds those of many concurrent
// calls (partition gangs, batch replicas) so that senders rarely wait.
var chunks = make(chan chunk, 256)

// runChunk runs one fanned-out range. It takes no arguments, so the go
// statement that starts it builds no closure, and the runtime recycles the
// goroutine once it returns: the fan-out is allocation-free in steady
// state and leaves no goroutine behind.
func runChunk() {
	c := <-chunks
	c.body.run(c.lo, c.hi)
	c.done.Done()
}

var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// fanOut runs job over [0, n) in contiguous chunks across at most
// MaxWorkers goroutines, the first of which runs on the caller's; below
// grain, or at one worker, it runs serially. Chunks travel over a channel,
// so they carry a pooled copy of job, never the caller's stack, and the
// fan-out allocates nothing in steady state.
func fanOut[J any, P interface {
	*J
	ranger
}](pool *sync.Pool, n, grain int, job J) {
	p := pool.Get().(P)
	*p = job
	if w := min(MaxWorkers(), n); w <= 1 || n < grain {
		p.run(0, n)
	} else {
		size := (n + w - 1) / w
		wg := waitGroups.Get().(*sync.WaitGroup)
		for lo := size; lo < n; lo += size {
			wg.Add(1)
			chunks <- chunk{p, lo, min(lo+size, n), wg}
			go runChunk()
		}
		p.run(0, size)
		wg.Wait()
		waitGroups.Put(wg)
	}
	*p = *new(J)
	pool.Put(p)
}
