package sim

import (
	"fmt"
	"sort"
)

// event is a unit of work on the kernel's calendar. fn runs in kernel
// context: it may mutate simulation state and resume processes, but it
// must never block.
type event struct {
	t   Time
	seq uint64
	fn  func()
}

// precedes orders events by (time, sequence number) — the kernel's total
// execution order.
func (e event) precedes(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled min-heap of event values ordered by
// (time, sequence number). Values instead of pointers keep the calendar
// allocation-free: pushing reuses the slice's backing array, and popping
// zeroes the vacated slot so closures are released to the GC.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].precedes(h[j]) }

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Kernel is a discrete-event simulation engine. All access must come from
// the goroutine that calls Run (kernel context) or from the single process
// coroutine the kernel is currently executing; a process runs only
// between its dispatch and its next block, so no further locking is
// required by users.
type Kernel struct {
	now Time
	seq uint64
	// queue holds future events; imm is the same-time fast path. An
	// event scheduled at the current instant can never precede anything
	// already pending at an earlier time, and sequence numbers only
	// grow, so appending to a FIFO preserves the (t, seq) total order
	// while skipping the heap entirely — the dominant case, since every
	// process dispatch, signal wakeup and zero-delay callback lands at
	// the current time.
	queue   eventHeap
	imm     []event
	immHead int
	// spare is the free list of waiters whose last wait ended in a
	// normal wake (see newWaiter).
	spare []*waiter

	nextPID  int64
	live     map[int64]*Proc
	stopped  bool
	fatal    *procPanic
	eventCnt uint64

	// Trace, when non-nil, receives a line for every process resume.
	// Used by determinism tests.
	Trace func(t Time, what string)
}

type procPanic struct {
	proc  string
	value any
	stack []byte
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{live: make(map[int64]*Proc)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events reports how many calendar events have been executed so far.
func (k *Kernel) Events() uint64 { return k.eventCnt }

// schedule enqueues fn to run at time t (>= now) in kernel context.
func (k *Kernel) schedule(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	if t == k.now {
		k.imm = append(k.imm, event{t: t, seq: k.seq, fn: fn})
		return
	}
	k.queue.push(event{t: t, seq: k.seq, fn: fn})
}

// At schedules fn to run at absolute virtual time t in kernel context.
// fn must not block; to run blocking code, spawn a process from fn.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn) }

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Time, fn func()) { k.schedule(k.now+d, fn) }

// Stop makes Run return after the current event completes. Pending events
// are kept, so Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// peek returns the earliest pending event without removing it.
func (k *Kernel) peek() (event, bool) {
	hasImm := k.immHead < len(k.imm)
	switch {
	case hasImm && (len(k.queue) == 0 || k.imm[k.immHead].precedes(k.queue[0])):
		return k.imm[k.immHead], true
	case len(k.queue) > 0:
		return k.queue[0], true
	}
	return event{}, false
}

// popNext removes and returns the earliest pending event. The imm FIFO is
// kept sorted by construction (times are the non-decreasing schedule-time
// clocks, sequences only grow), so its head and the heap top are the only
// candidates.
func (k *Kernel) popNext() event {
	if k.immHead < len(k.imm) && (len(k.queue) == 0 || k.imm[k.immHead].precedes(k.queue[0])) {
		ev := k.imm[k.immHead]
		k.imm[k.immHead] = event{} // release the closure
		k.immHead++
		if k.immHead == len(k.imm) {
			k.imm = k.imm[:0]
			k.immHead = 0
		}
		return ev
	}
	return k.queue.pop()
}

// run executes pending events in (t, seq) order while keep(next) holds.
func (k *Kernel) run(keep func(event) bool) {
	k.stopped = false
	for !k.stopped {
		ev, ok := k.peek()
		if !ok || !keep(ev) {
			return
		}
		k.popNext()
		k.now = ev.t
		k.eventCnt++
		ev.fn()
		if k.fatal != nil {
			f := k.fatal
			panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", f.proc, f.value, f.stack))
		}
	}
}

// Run executes calendar events in order until no events remain or Stop is
// called. It panics if any simulated process panicked.
func (k *Kernel) Run() {
	k.run(func(event) bool { return true })
}

// Step executes exactly one pending calendar event and reports whether
// one ran. Calling Step until it returns false is equivalent to Run; the
// invariant-fuzzing harness uses it to interleave whole-system checks
// between every pair of events.
func (k *Kernel) Step() bool {
	ran := false
	k.run(func(event) bool {
		if ran {
			return false
		}
		ran = true
		return true
	})
	return ran
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) {
	k.run(func(ev event) bool { return ev.t <= t })
	if k.now < t {
		k.now = t
	}
}

// Idle reports whether the calendar is empty.
func (k *Kernel) Idle() bool {
	return k.immHead >= len(k.imm) && len(k.queue) == 0
}

// LiveProcs returns the names of processes that have been spawned but have
// not yet exited. After Run drains the calendar, any remaining live
// processes are deadlocked on synchronization objects; tests use this to
// detect protocol bugs.
func (k *Kernel) LiveProcs() []string {
	names := make([]string, 0, len(k.live))
	for _, p := range k.live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// dispatch resumes p with its pending wake until it blocks or exits, on
// a worker bound at its first dispatch and released when it exits. It
// must only be called from kernel context (inside an event fn).
func (k *Kernel) dispatch(p *Proc) {
	if p.done {
		return
	}
	if k.Trace != nil {
		k.Trace(k.now, p.name)
	}
	w := p.w
	if w == nil {
		w = bindWorker(p)
	}
	w.next()
	if p.done {
		releaseWorker(w)
	}
}

var exitSentinel = new(int)

// Spawn creates a simulated process named name running fn, scheduled to
// start at the current virtual time. fn runs in process context and may
// block. When fn returns (or calls Proc.Exit) the process terminates.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{k: k, id: k.nextPID, name: name, fn: fn}
	p.dispatch = func() { k.dispatch(p) }
	k.live[p.id] = p
	k.schedule(k.now, p.dispatch)
	return p
}
