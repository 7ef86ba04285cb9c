package fedstore

import (
	"fmt"
	"runtime"
	"testing"

	"tornado/internal/archive"
	"tornado/internal/device"
	"tornado/internal/graphml"
)

// shippedFederation is bench/'s site_wipe federation at a given object count:
// the three shipped graphs as three sites over counting device arrays, 4 KiB
// blocks, that many objects of 1 MiB stored at every site.
func shippedFederation(tb testing.TB, objects int) (f *Store, stores []*archive.Store, counts []*countingBackend, devs []device.Array) {
	tb.Helper()
	for i := 1; i <= 3; i++ {
		g, err := graphml.ReadFile(fmt.Sprintf("../../precompiled/tornado96-%d.graphml", i))
		if err != nil {
			tb.Fatal(err)
		}
		d := device.NewArray(g.Total)
		cb := &countingBackend{Backend: archive.NewArrayBackend(d)}
		s, err := archive.NewWithBackend(g, cb, archive.Config{BlockSize: 4096})
		if err != nil {
			tb.Fatal(err)
		}
		stores, counts, devs = append(stores, s), append(counts, cb), append(devs, d)
	}
	f, err := New(stores, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	data := testPayload(1<<20, 1)
	for k := 0; k < objects; k++ {
		if err := f.PutCtx(ctx, fmt.Sprintf("obj-%03d", k), data); err != nil {
			tb.Fatal(err)
		}
	}
	return f, stores, counts, devs
}

// BenchmarkRepairSite is bench/'s site_wipe workload as a Go benchmark: the
// three shipped graphs as three sites, 64 objects of 1 MiB in 4 KiB blocks,
// every device of site 0 wiped and RepairSite timed. It reports the repair
// time and how many blocks the repair read at all three sites per stripe
// rebuilt — the stripe's live data blocks, each read once at a donor, is the
// floor: the blank site has nothing to read, and nothing it wrote is read
// back.
func BenchmarkRepairSite(b *testing.B) {
	f, stores, counts, devs := shippedFederation(b, 64)
	stripes := 0
	for _, obj := range stores[0].List() {
		stripes += obj.Stripes
	}
	var reads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, d := range devs[0] {
			d.Fail()
			d.Replace()
		}
		for _, cb := range counts {
			reads -= cb.reads.Load()
		}
		b.StartTimer()
		rep, err := f.RepairSiteCtx(ctx, 0)
		if err != nil || rep.MissingAfter != 0 || rep.Unrecoverable != 0 {
			b.Fatalf("repair: %v, report %+v", err, rep)
		}
		for _, cb := range counts {
			reads += cb.reads.Load()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "repair_ms")
	b.ReportMetric(float64(reads)/float64(b.N*stripes), "reads/stripe")
}

// BenchmarkFederatedPut is site_wipe's setup as a Go benchmark: 1 MiB objects
// Put through the facade into the three shipped graphs, every site written at
// once, each object on fresh device slabs as the setup's are. Every 16 objects
// a fresh federation replaces the full one off the clock, which bounds the
// memory held. It reports ms/object.
func BenchmarkFederatedPut(b *testing.B) {
	const perFederation = 16
	data := testPayload(1<<20, 1)
	var f *Store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perFederation == 0 {
			b.StopTimer()
			f = nil
			runtime.GC()
			f, _, _, _ = shippedFederation(b, 0)
			b.StartTimer()
		}
		if err := f.PutCtx(ctx, fmt.Sprintf("obj-%03d", i%perFederation), data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/object")
}
