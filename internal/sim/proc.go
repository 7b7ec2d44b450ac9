package sim

import "runtime/debug"

// wake carries the reason a blocked process was resumed.
type wake struct {
	val     any
	timeout bool
	killed  bool
}

// Proc is a simulated process. Its body runs on a pooled worker
// coroutine (see worker) that the kernel resumes with one switch and that
// switches back when the body blocks. All methods must be called from the
// process's own body (process context) unless documented otherwise.
type Proc struct {
	k    *Kernel
	id   int64
	name string
	// fn is the body, dropped at exit so a *Proc kept afterwards does not
	// keep its captured state alive; w is the worker running it, bound at
	// the first dispatch and released at exit.
	fn func(p *Proc)
	w  *worker
	// dispatch is k.dispatch(p), built once at Spawn, so scheduling a
	// resume allocates nothing; pending is the wake it delivers.
	dispatch func()
	pending  wake
	done     bool
	killed   bool
	exitFns  []func()
	waiting  *waiter // waiter currently parked on, for Kill
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// wakeAt schedules p to resume with w at time t. A process has at most one
// pending wake, except that Kill may overwrite a scheduled one with its
// own: the first dispatch then unwinds the process and the second finds
// it done.
func (p *Proc) wakeAt(t Time, w wake) {
	p.pending = w
	p.k.schedule(t, p.dispatch)
}

// block yields control to the kernel and waits to be resumed. If the
// process was killed while blocked, it unwinds immediately.
func (p *Proc) block() wake {
	p.w.yield(struct{}{})
	w := p.pending
	p.pending = wake{}
	if w.killed || p.killed {
		panic(exitSentinel)
	}
	return w
}

// run executes the body on p's worker and tears the process down when the
// body returns or unwinds. A body's panic is recovered here, not re-raised
// through iter.Pull, so the kernel can report it with the process name
// and stack.
func (p *Proc) run() {
	k := p.k
	defer func() {
		r := recover()
		if r != nil && r != exitSentinel {
			k.fatal = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
		}
		p.done = true
		p.fn = nil
		delete(k.live, p.id)
		fns := p.exitFns
		p.exitFns = nil
		for _, f := range fns {
			f()
		}
	}()
	p.fn(p)
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep for zero time (still yielding to the scheduler once).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.k.now+d, wake{})
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
		p.wakeAt(p.k.now, wake{killed: true})
	}
}

// Done reports whether the process has terminated. Callable from any
// context.
func (p *Proc) Done() bool { return p.done }
