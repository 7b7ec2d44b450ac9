package sim

// wake carries the reason a blocked process was resumed.
type wake struct {
	val     any
	timeout bool
	killed  bool
}

// Proc is a simulated process. All methods must be called from the
// process's own goroutine (process context) unless documented otherwise.
type Proc struct {
	k       *Kernel
	id      int64
	name    string
	resume  chan wake
	done    bool
	killed  bool
	exitFns []func()
	waiting *waiter // waiter currently parked on, for Kill
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// block yields control to the kernel and waits to be resumed. If the
// process was killed while blocked, it unwinds immediately.
func (p *Proc) block() wake {
	p.k.yielded <- struct{}{}
	w := <-p.resume
	if w.killed || p.killed {
		panic(exitSentinel)
	}
	return w
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep for zero time (still yielding to the scheduler once).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.schedule(k.now+d, func() { k.dispatch(p, wake{}) })
	p.block()
}

// Exit terminates the process immediately. Deferred functions inside the
// process body do NOT run (mirroring exit(0) in the paper's Listing 1);
// functions registered with OnExit do run.
func (p *Proc) Exit() { panic(exitSentinel) }

// OnExit registers fn to run in kernel-adjacent context when the process
// terminates for any reason. fn must not block; it may schedule events.
// Safe to call from any context before the process exits.
func (p *Proc) OnExit(fn func()) { p.exitFns = append(p.exitFns, fn) }

// Kill marks the process for termination. If it is blocked on an
// interruptible wait it unwinds at its next resume; otherwise it unwinds
// at its next blocking call. Must be called from kernel or another
// process's context, not from p itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	// If blocked on a waiter, wake it now so it can unwind.
	// Sleeping processes unwind when their timer fires.
	if p.waiting != nil {
		w := p.waiting
		p.waiting = nil
		w.cancelled = true
		k := p.k
		k.schedule(k.now, func() { k.dispatch(p, wake{killed: true}) })
	}
}

// Done reports whether the process has terminated. Callable from any
// context.
func (p *Proc) Done() bool { return p.done }
