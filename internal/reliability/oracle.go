package reliability

import "math"

// AnnualLossProbability converts an MTTDL into the probability of data
// loss within one year under the standard exponential approximation.
func AnnualLossProbability(mttdlYears float64) float64 {
	if mttdlYears <= 0 {
		return 1
	}
	return 1 - math.Exp(-1/mttdlYears)
}
