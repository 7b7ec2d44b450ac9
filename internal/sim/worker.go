package sim

import (
	"iter"
	"sync"
)

// worker is a coroutine (iter.Pull) that runs process bodies one after
// another: the kernel resumes the current body with next, and the body
// switches back with yield when it blocks or exits. Workers are pooled
// rather than left to exit once per process: an exiting coroutine skips
// the race detector's goroutine teardown (Go 1.24's coroexit never calls
// racegoend), and one coroutine per process slowed
// `go test -race ./internal/experiments` from about 95 s to past its
// 10-minute timeout. Reuse also saves a goroutine creation per Spawn.
type worker struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the process being run; nil while idle
}

// idle holds parked workers for any kernel to reuse. Kernels may run in
// separate goroutines, so the list is locked; each worker is used by one
// kernel at a time.
var idle struct {
	sync.Mutex
	ws []*worker
}

// bindWorker gives p a worker, reusing an idle one when it can. Kernel
// context, at p's first dispatch.
func bindWorker(p *Proc) *worker {
	var w *worker
	idle.Lock()
	if n := len(idle.ws); n > 0 {
		w = idle.ws[n-1]
		idle.ws[n-1] = nil
		idle.ws = idle.ws[:n-1]
	}
	idle.Unlock()
	if w == nil {
		w = &worker{}
		w.next, _ = iter.Pull(w.loop)
	}
	w.p = p
	p.w = w
	return w
}

// releaseWorker parks w for reuse once its process has exited and w has
// switched back to the kernel. A worker whose body ended in runtime.Goexit
// or an OnExit panic never gets here: iter.Pull re-raises either in the
// kernel.
func releaseWorker(w *worker) {
	w.p.w = nil
	w.p = nil
	idle.Lock()
	idle.ws = append(idle.ws, w)
	idle.Unlock()
}

// loop is the worker's coroutine body: run the bound process to its end,
// then park until the next process is bound.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}
