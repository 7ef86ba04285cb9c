package sim

import "tornado/internal/obs"

// SetMetrics redirects the simulation progress counters to reg (e.g. a
// registry already exported over HTTP). A nil reg is ignored.
func SetMetrics(reg *obs.Registry) {
	if reg != nil {
		metricsReg.Store(reg)
	}
}
