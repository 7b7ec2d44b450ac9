package slurm

import (
	"fmt"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestSampleFanOut: two subscribers both see every sample — the
// regression the subscription API exists for (Recorder.Attach used to
// silently overwrite the controller's single callback).
func TestSampleFanOut(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	var a, b []int
	c.SubscribeSamples(func(_ sim.Time, alloc, _, _, _ int) { a = append(a, alloc) })
	c.SubscribeSamples(func(_ sim.Time, alloc, _, _, _ int) { b = append(b, alloc) })
	c.Submit(sleeperJob(c, "j1", 2, 10*sim.Second))
	c.Submit(sleeperJob(c, "j2", 4, 10*sim.Second))
	cl.K.Run()
	if len(a) == 0 {
		t.Fatal("first subscriber saw no samples")
	}
	if len(a) != len(b) {
		t.Fatalf("subscribers diverged: %d vs %d samples", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEventStreamCounts: TotalEvents counts exactly the lifecycle
// (non-probe) events a subscriber saw, and every scheduling pass ends
// with one PASS probe.
func TestEventStreamCounts(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	lifecycle, passes := 0, 0
	c.SubscribeEvents(func(ev Event) {
		switch {
		case ev.Kind == EvPass:
			passes++
		case !ev.Kind.Probe():
			lifecycle++
		}
	})
	for i := 0; i < 20; i++ {
		c.Submit(sleeperJob(c, "j", 1, sim.Second))
	}
	cl.K.Run()
	if uint64(lifecycle) != c.TotalEvents() {
		t.Fatalf("TotalEvents %d, subscriber saw %d lifecycle events", c.TotalEvents(), lifecycle)
	}
	if lifecycle != 60 { // 20 submits, starts and ends
		t.Fatalf("%d lifecycle events, want 60", lifecycle)
	}
	if passes == 0 || passes != c.Stats().Passes {
		t.Fatalf("%d PASS events, Stats().Passes %d", passes, c.Stats().Passes)
	}
}

// TestEventSetIsTheNodesMoved drives one job through start, an expand
// dance (resizer START, DETACH, GROW), a shrink and its end: each
// event's Set is exactly the nodes that moved.
func TestEventSetIsTheNodesMoved(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	sets := map[EventKind][]string{}
	c.SubscribeEvents(func(ev Event) {
		if !ev.Kind.Probe() {
			sets[ev.Kind] = append(sets[ev.Kind], nodeIndices(ev.Set))
		}
	})
	a := c.Submit(&Job{Name: "a", ReqNodes: 2, TimeLimit: sim.Hour})
	cl.K.RunUntil(sim.Second)
	started := append([]*platform.Node(nil), a.Alloc()...)
	var parked []*platform.Node
	c.SubmitResizer(a, 3, func(rj *Job) {
		cl.K.After(sim.Second, func() {
			parked = c.DetachNodes(rj)
			c.CancelResizer(rj)
			c.GrowJob(a, parked)
		})
	})
	cl.K.RunUntil(10 * sim.Second)
	grown := nodeIndices(a.Alloc())
	released := nodeIndices(c.ShrinkJob(a, 2))
	kept := nodeIndices(a.Alloc())
	c.JobComplete(a)
	cl.K.Run()

	want := map[EventKind][]string{
		EvStart:  {nodeIndices(started), nodeIndices(parked)},
		EvDetach: {nodeIndices(parked)},
		EvGrow:   {nodeIndices(parked)},
		EvShrink: {released},
		EvEnd:    {kept},
	}
	for kind, w := range want {
		if fmt.Sprint(sets[kind]) != fmt.Sprint(w) {
			t.Errorf("%v sets %v, want %v", kind, sets[kind], w)
		}
	}
	if len(parked) != 3 || grown != nodeIndices(append(started, parked...)) {
		t.Errorf("grown allocation %s from start %v and parked %v", grown, nodeIndices(started), nodeIndices(parked))
	}
}

// nodeIndices renders nodes as their index list.
func nodeIndices(nodes []*platform.Node) string {
	idx := make([]int, len(nodes))
	for i, n := range nodes {
		idx[i] = n.Index
	}
	return fmt.Sprint(idx)
}

// TestConstructionEventsReachLateSubscribers: the elastic fleet powers
// its surplus off inside NewController, before anyone can subscribe; a
// subscriber registered afterwards still receives those events first.
func TestConstructionEventsReachLateSubscribers(t *testing.T) {
	_, c := elasticController(8, ElasticConfig{Min: 3}, nil)
	var offline []int
	c.SubscribeEvents(func(ev Event) {
		if ev.Kind == EvOffline {
			offline = append(offline, ev.Set[0].Index)
		}
	})
	if fmt.Sprint(offline) != "[7 6 5 4 3]" {
		t.Fatalf("late subscriber saw power-offs of nodes %v, want [7 6 5 4 3]", offline)
	}
	if c.TotalEvents() != 5 {
		t.Fatalf("TotalEvents %d, want the 5 power-offs", c.TotalEvents())
	}
}
