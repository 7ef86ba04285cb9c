package repairbw

import (
	"sync"
	"testing"

	"tornado/internal/obs"
)

func TestCauseNames(t *testing.T) {
	want := map[Cause]string{
		Scrub:       "scrub",
		ReadRepair:  "read_repair",
		DegradedGet: "degraded_get",
		Federation:  "federation",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if Cause(-1).String() != "unknown" || NumCauses.String() != "unknown" {
		t.Errorf("out-of-range causes must stringify as unknown")
	}
}

func TestRecordAndTotals(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMeter(reg)
	m.Record(Scrub, CostReport{BlocksRead: 3, BytesRead: 300})
	m.Record(Scrub, CostReport{BlocksWritten: 2, BytesWritten: 200})
	m.Record(ReadRepair, CostReport{BlocksWritten: 1, BytesWritten: 68})

	got := m.Totals(Scrub)
	want := CostReport{BlocksRead: 3, BlocksWritten: 2, BytesRead: 300, BytesWritten: 200}
	if got != want {
		t.Errorf("Totals(Scrub) = %+v, want %+v", got, want)
	}
	if rr := m.Totals(ReadRepair); rr.BytesWritten != 68 || rr.BlocksWritten != 1 {
		t.Errorf("Totals(ReadRepair) = %+v", rr)
	}
	if dg := m.Totals(DegradedGet); !dg.Zero() {
		t.Errorf("unused cause non-zero: %+v", dg)
	}
	total := m.Total()
	if total.BytesRead != 300 || total.BytesWritten != 268 || total.BlocksRead != 3 || total.BlocksWritten != 3 {
		t.Errorf("Total() = %+v", total)
	}

	// The counters land on the registry under repairbw.<cause>.*.
	if v := reg.Counter("repairbw.scrub.bytes_read").Value(); v != 300 {
		t.Errorf("registry counter repairbw.scrub.bytes_read = %d, want 300", v)
	}
	if v := reg.Counter("repairbw.read_repair.bytes_written").Value(); v != 68 {
		t.Errorf("registry counter repairbw.read_repair.bytes_written = %d, want 68", v)
	}
}

func TestNilAndEmptySafe(t *testing.T) {
	var m *Meter
	m.Record(Scrub, CostReport{BytesRead: 1}) // must not panic
	if got := m.Totals(Scrub); !got.Zero() {
		t.Errorf("nil meter Totals = %+v", got)
	}
	m2 := NewMeter(nil)
	m2.Record(Cause(99), CostReport{BytesRead: 1})
	m2.Record(Scrub, CostReport{})
	if got := m2.Total(); !got.Zero() {
		t.Errorf("empty/ignored records leaked into Total: %+v", got)
	}
}

func TestCostReportAdd(t *testing.T) {
	var c CostReport
	c.Add(CostReport{BlocksRead: 1, BlocksWritten: 2, BytesRead: 10, BytesWritten: 20})
	c.Add(CostReport{BlocksRead: 4, BytesRead: 40})
	want := CostReport{BlocksRead: 5, BlocksWritten: 2, BytesRead: 50, BytesWritten: 20}
	if c != want {
		t.Errorf("Add accumulated %+v, want %+v", c, want)
	}
	if c.Bytes() != 70 {
		t.Errorf("Bytes() = %d, want 70", c.Bytes())
	}
}

func TestConcurrentRecord(t *testing.T) {
	m := NewMeter(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Record(DegradedGet, CostReport{BlocksRead: 1, BytesRead: 68})
			}
		}()
	}
	wg.Wait()
	got := m.Totals(DegradedGet)
	if got.BlocksRead != 8000 || got.BytesRead != 8000*68 {
		t.Errorf("concurrent totals %+v", got)
	}
}
