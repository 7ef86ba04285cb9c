package fedstore

import "tornado/internal/repairbw"

// SiteFederationTotals aggregates the repairbw federation-cause meters of
// the sites that keep one in this process (every in-process site; a remote
// site's ledger lives with its server) — the store-side view of the same
// exchange traffic.
func (f *Store) SiteFederationTotals() repairbw.CostReport {
	var total repairbw.CostReport
	for _, s := range f.sites {
		if m, ok := s.(interface{ RepairMeter() *repairbw.Meter }); ok {
			total.Add(m.RepairMeter().Totals(repairbw.Federation))
		}
	}
	return total
}

// RepairMeter exposes the store's repair ledger to SiteFederationTotals.
func (l local) RepairMeter() *repairbw.Meter { return l.s.RepairMeter() }
