package combin

// ForEach enumerates every k-combination of {0,…,n-1} in lexicographic
// order, invoking fn with a reused slice (fn must not retain it). It stops
// early and returns false if fn returns false; otherwise returns true after
// full enumeration.
func ForEach(n, k int, fn func(idx []int) bool) bool {
	if k == 0 {
		return fn(nil)
	}
	idx := make([]int, k)
	First(idx, n)
	for {
		if !fn(idx) {
			return false
		}
		if !Next(idx, n) {
			return true
		}
	}
}
