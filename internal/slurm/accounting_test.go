package slurm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestAccountingRecords(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 2, 10*sim.Second))
	b := c.Submit(sleeperJob(c, "b", 2, 5*sim.Second))
	cancelled := c.Submit(sleeperJob(c, "c", 8, 5*sim.Second)) // can never run
	cl.K.At(sim.Second, func() {
		if err := c.Cancel(cancelled); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	cl.K.Run()
	recs := c.Accounting()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].ID != a.ID || recs[0].ExecSec != 10 {
		t.Fatalf("record a: %+v", recs[0])
	}
	if recs[1].ID != b.ID || recs[1].NodeSeconds != 10 {
		t.Fatalf("record b: %+v", recs[1])
	}
	if recs[2].State != StateCancelled || recs[2].StartSec != 0 {
		t.Fatalf("record c: %+v", recs[2])
	}
}

func TestAccountingCSV(t *testing.T) {
	cl := testCluster(2)
	c := NewController(cl, DefaultConfig())
	c.Submit(sleeperJob(c, "only", 2, 3*sim.Second))
	cl.K.Run()
	var buf bytes.Buffer
	if err := c.WriteAccountingCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,name,state") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "only,COMPLETED,2") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestAccountingExcludesResizers(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 2, 20*sim.Second))
	cl.K.At(sim.Second, func() {
		c.SubmitResizer(a, 2, func(rj *Job) {
			nodes := c.DetachNodes(rj)
			c.CancelResizer(rj)
			c.GrowJob(a, nodes)
		})
	})
	cl.K.Run()
	for _, r := range c.Accounting() {
		if strings.Contains(r.Name, "resizer") {
			t.Fatalf("resizer leaked into accounting: %+v", r)
		}
	}
}
