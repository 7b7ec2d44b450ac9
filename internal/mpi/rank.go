package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Rank is one process's view of a communicator: the handle application
// code holds. All methods must be called from the rank's own process.
type Rank struct {
	comm *Comm
	rank int
	proc *sim.Proc
}

// Rank returns this process's rank in the communicator.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.Size() }

// Comm returns the communicator.
func (r *Rank) Comm() *Comm { return r.comm }

// Proc returns the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Request is a handle for a nonblocking operation.
type Request struct {
	done *sim.Signal
	rr   *recvReq // nil for sends
}

// sendTo moves a message into dst's mailbox after the modeled transfer
// time, as seen under communicator identity srcCommID.
func (r *Rank) sendTo(dst *endpoint, srcCommID, srcRank, tag int, data any, bytes int64) *Request {
	k := r.comm.cluster.K
	env := &envelope{srcCommID: srcCommID, msg: &Msg{Src: srcRank, Tag: tag, Data: cloneData(data), Bytes: bytes}}
	done := sim.NewSignal(k)
	cost := r.comm.cluster.Net().TransferTime(bytes)
	k.After(cost, func() {
		dst.deliver(env)
		done.Fire()
	})
	return &Request{done: done}
}

// Isend starts a nonblocking send of data to rank dst with the given tag.
// bytes is the modeled wire size (the real payload may be a scaled-down
// stand-in during workload simulations).
func (r *Rank) Isend(dst, tag int, data any, bytes int64) *Request {
	if dst < 0 || dst >= r.comm.Size() {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (size %d)", dst, r.comm.Size()))
	}
	return r.sendTo(r.comm.eps[dst], r.comm.id, r.rank, tag, data, bytes)
}

// Send is a blocking send: it returns once the transfer completes.
func (r *Rank) Send(dst, tag int, data any, bytes int64) {
	r.Wait(r.Isend(dst, tag, data, bytes))
}

// Irecv posts a nonblocking receive matching (src, tag); use AnySource /
// AnyTag as wildcards.
func (r *Rank) Irecv(src, tag int) *Request {
	rr := r.comm.eps[r.rank].post(pattern{commID: r.comm.id, src: src, tag: tag})
	return &Request{done: rr.done, rr: rr}
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
func (r *Rank) Recv(src, tag int) *Msg {
	return r.Wait(r.Irecv(src, tag))
}

// Wait blocks until req completes. For receives it returns the message.
func (r *Rank) Wait(req *Request) *Msg {
	req.done.Wait(r.proc)
	if req.rr != nil {
		return req.rr.msg
	}
	return nil
}

// Waitall blocks until every request completes, returning messages for
// the receive requests (nil entries for sends), in request order.
func (r *Rank) Waitall(reqs []*Request) []*Msg {
	out := make([]*Msg, len(reqs))
	for i, req := range reqs {
		out[i] = r.Wait(req)
	}
	return out
}

// Sendrecv posts a send to dst and a receive from src simultaneously
// and completes both, mirroring MPI_Sendrecv (deadlock-free pairwise
// exchange).
func (r *Rank) Sendrecv(dst, sendTag int, data any, bytes int64, src, recvTag int) *Msg {
	rreq := r.Irecv(src, recvTag)
	sreq := r.Isend(dst, sendTag, data, bytes)
	r.Wait(sreq)
	return r.Wait(rreq)
}

// SendRemote sends to rank dst of the intercommunicator's remote group.
func (r *Rank) SendRemote(ic *Intercomm, dst, tag int, data any, bytes int64) {
	r.Wait(r.IsendRemote(ic, dst, tag, data, bytes))
}

// IsendRemote is the nonblocking form of SendRemote.
func (r *Rank) IsendRemote(ic *Intercomm, dst, tag int, data any, bytes int64) *Request {
	if ic.local != r.comm {
		panic("mpi: IsendRemote: intercomm's local group is not this rank's communicator")
	}
	if dst < 0 || dst >= ic.remote.Size() {
		panic(fmt.Sprintf("mpi: IsendRemote to invalid remote rank %d (size %d)", dst, ic.remote.Size()))
	}
	// The receiver matches remote traffic under the *local* comm's id.
	return r.sendTo(ic.remote.eps[dst], ic.local.id, r.rank, tag, data, bytes)
}

// IrecvRemote posts a receive for a message from the remote group.
func (r *Rank) IrecvRemote(ic *Intercomm, src, tag int) *Request {
	if ic.local != r.comm {
		panic("mpi: IrecvRemote: intercomm's local group is not this rank's communicator")
	}
	rr := r.comm.eps[r.rank].post(pattern{commID: ic.remote.id, src: src, tag: tag})
	return &Request{done: rr.done, rr: rr}
}

// RecvRemote blocks for a message from rank src of the remote group.
func (r *Rank) RecvRemote(ic *Intercomm, src, tag int) *Msg {
	return r.Wait(r.IrecvRemote(ic, src, tag))
}
