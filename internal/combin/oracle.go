package combin

import "math/rand/v2"

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

// RandomSubset is RandomSubsetUnsorted's draw in increasing order: the
// k-subset the sampled certification screened when it sorted every
// pattern, which its tests replay a block's stream through.
func RandomSubset(idx []int, n int, src *rand.PCG, seen []uint64) {
	RandomSubsetUnsorted(idx, n, src, seen)
	insertionSort(idx)
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
