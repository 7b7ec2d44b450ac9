package sim

// waiter represents one parked process on a synchronization object.
type waiter struct {
	p         *Proc
	woken     bool
	cancelled bool
}

// newWaiter returns a waiter for p, reusing one from the kernel's free
// list when it can. Only Wait, Pop and Acquire pool their waiters, and
// they return one with freeWaiter only after a normal wake. A killed
// process's waiter may still be listed on its Signal, Queue or Resource,
// and a WaitTimeout or PopTimeout waiter is still held by its timeout
// event; neither is ever recycled.
func (k *Kernel) newWaiter(p *Proc) *waiter {
	n := len(k.spare)
	if n == 0 {
		return &waiter{p: p}
	}
	w := k.spare[n-1]
	k.spare = k.spare[:n-1]
	w.p = p
	return w
}

// freeWaiter returns w to the free list after its wait ended normally.
func (k *Kernel) freeWaiter(w *waiter) {
	*w = waiter{}
	k.spare = append(k.spare, w)
}

// park registers w as p's current wait and yields. It returns the wake.
func park(p *Proc, w *waiter) wake {
	p.waiting = w
	wk := p.block()
	p.waiting = nil
	return wk
}

// wakeWaiter schedules w's process to resume with wk at the current time.
func wakeWaiter(w *waiter, wk wake) {
	if w.woken || w.cancelled {
		return
	}
	w.woken = true
	w.p.wakeAt(w.p.k.now, wk)
}

// Signal is a one-shot latch: Fire wakes all current and future waiters.
// The zero value is not usable; create with NewSignal.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters []*waiter
}

// NewSignal returns an unfired Signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire latches the signal and wakes every waiter. Subsequent Waits return
// immediately. Safe to call from kernel or process context; idempotent.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		wakeWaiter(w, wake{})
	}
}

// Wait blocks p until the signal fires. Returns immediately if already
// fired.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	w := p.k.newWaiter(p)
	s.waiters = append(s.waiters, w)
	park(p, w)
	p.k.freeWaiter(w)
}

// WaitTimeout blocks p until the signal fires or d elapses. It reports
// whether the signal fired (true) or the wait timed out (false).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	if s.fired {
		return true
	}
	w := &waiter{p: p}
	s.waiters = append(s.waiters, w)
	k := p.k
	k.schedule(k.now+d, func() {
		if w.woken || w.cancelled {
			return
		}
		w.woken = true
		s.removeWaiter(w)
		p.pending = wake{timeout: true}
		k.dispatch(p)
	})
	wk := park(p, w)
	return !wk.timeout
}

func (s *Signal) removeWaiter(w *waiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Queue is an unbounded FIFO message queue. Push never blocks; Pop blocks
// until an item is available.
type Queue struct {
	k       *Kernel
	items   []any
	waiters []*waiter
}

// NewQueue returns an empty queue.
func NewQueue(k *Kernel) *Queue { return &Queue{k: k} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v. If a process is blocked in Pop, the oldest waiter
// receives v directly. Safe from kernel or process context.
func (q *Queue) Push(v any) {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.woken || w.cancelled {
			continue
		}
		wakeWaiter(w, wake{val: v})
		return
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue) Pop(p *Proc) any {
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v
	}
	w := p.k.newWaiter(p)
	q.waiters = append(q.waiters, w)
	wk := park(p, w)
	p.k.freeWaiter(w)
	return wk.val
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue) TryPop() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// PopTimeout is Pop with a deadline. ok is false if d elapsed first.
func (q *Queue) PopTimeout(p *Proc, d Time) (v any, ok bool) {
	if len(q.items) > 0 {
		v = q.items[0]
		q.items = q.items[1:]
		return v, true
	}
	w := &waiter{p: p}
	q.waiters = append(q.waiters, w)
	k := p.k
	k.schedule(k.now+d, func() {
		if w.woken || w.cancelled {
			return
		}
		w.woken = true
		q.removeWaiter(w)
		p.pending = wake{timeout: true}
		k.dispatch(p)
	})
	wk := park(p, w)
	if wk.timeout {
		return nil, false
	}
	return wk.val, true
}

func (q *Queue) removeWaiter(w *waiter) {
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Resource is a counting semaphore used to model contended hardware such
// as a parallel filesystem's service slots. Acquire blocks while all
// slots are in use; waiters are served FIFO.
type Resource struct {
	k       *Kernel
	cap     int
	inUse   int
	waiters []*waiter
}

// NewResource returns a resource with capacity slots (at least 1).
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, cap: capacity}
}

// InUse reports the number of held slots. A slot transferred to a woken
// waiter counts from the instant of the transfer, even before the waiter
// resumes.
func (r *Resource) InUse() int { return r.inUse }

// Waiting reports the number of processes parked in Acquire.
func (r *Resource) Waiting() int { return len(r.waiters) }

// Acquire takes one slot, blocking p until one is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	w := p.k.newWaiter(p)
	r.waiters = append(r.waiters, w)
	park(p, w)
	p.k.freeWaiter(w)
	// The releaser transferred its slot to us; inUse stays constant.
}

// Release frees one slot, waking the oldest waiter if any. Safe from
// kernel or process context.
func (r *Resource) Release() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if w.woken || w.cancelled {
			continue
		}
		wakeWaiter(w, wake{})
		return
	}
	if r.inUse > 0 {
		r.inUse--
	}
}

// Counter is a WaitGroup analog in virtual time: Add increments, Done
// decrements, and Wait blocks until the count reaches zero.
type Counter struct {
	k     *Kernel
	count int
	zero  *Signal
}

// NewCounter returns a counter at zero.
func NewCounter(k *Kernel) *Counter { return &Counter{k: k} }

// Add increases the count by n.
func (c *Counter) Add(n int) { c.count += n }

// Count returns the current count.
func (c *Counter) Count() int { return c.count }

// Done decrements the count; at zero it releases all waiters.
func (c *Counter) Done() {
	c.count--
	if c.count <= 0 && c.zero != nil {
		c.zero.Fire()
		c.zero = nil
	}
}

// Wait blocks p until the count reaches zero. Returns immediately if the
// count is already zero or negative.
func (c *Counter) Wait(p *Proc) {
	if c.count <= 0 {
		return
	}
	if c.zero == nil {
		c.zero = NewSignal(c.k)
	}
	c.zero.Wait(p)
}
