package decode

// Kernel answers "is this erasure set recoverable?" for a set changed a
// node at a time — retrieval's planner probes "still decodable without this
// block?" as one-node deltas. The set lives in an unordered list, so
// EraseOne, RestoreOne and Swap are O(1); Eval runs the Decoder's array peel
// over it and restores the baseline, in time that tracks the set, not the
// graph. Nothing allocates in the steady state. A Kernel is not safe for
// concurrent use; create one per goroutine. Many kernels may share one
// read-only CSR.
type Kernel struct {
	peeler
	eset  []int32 // the erasure set S, unordered
	epos  []int32 // epos[v] = v's index in eset while erased
	edata int32   // |S ∩ data|
}

// NewKernel returns a Kernel over c in the baseline state (everything
// present, empty erasure set).
func NewKernel(c *CSR) *Kernel {
	return &Kernel{
		peeler: newPeeler(c),
		eset:   make([]int32, 0, 16),
		epos:   make([]int32, c.Total),
	}
}

// Erased returns the size of the current erasure set.
func (k *Kernel) Erased() int { return len(k.eset) }

// MissingData returns the number of data nodes in the current erasure set.
// A set with MissingData() == 0 is trivially recoverable.
func (k *Kernel) MissingData() int { return int(k.edata) }

// EraseOne adds node v to the erasure set. v must not already be erased.
func (k *Kernel) EraseOne(v int) {
	k.epos[v] = int32(len(k.eset))
	k.eset = append(k.eset, int32(v))
	if int32(v) < k.c.Data {
		k.edata++
	}
}

// RestoreOne removes node v from the erasure set. v must be erased.
func (k *Kernel) RestoreOne(v int) {
	i, last := k.epos[v], len(k.eset)-1
	moved := k.eset[last]
	k.eset[i] = moved
	k.epos[moved] = i
	k.eset = k.eset[:last]
	if int32(v) < k.c.Data {
		k.edata--
	}
}

// Swap applies a revolving-door step: node out leaves the erasure set,
// node in enters it.
func (k *Kernel) Swap(out, in int) {
	k.RestoreOne(out)
	k.EraseOne(in)
}

// Eval reports whether the current erasure set is recoverable — peeling
// reconstructs every data node. The erasure set is untouched, so it can be
// delta-adjusted for the next pattern.
func (k *Kernel) Eval() bool {
	if k.edata == 0 {
		return true
	}
	for _, v := range k.eset {
		k.erase(v)
	}
	k.peel(nil, false)
	ok := k.lostData == 0
	k.restore(k.eset)
	return ok
}

// Recoverable evaluates one erasure set from a clean or delta state:
// erased's nodes are added to the current set, the combined set is
// evaluated, and the added nodes are removed again. Duplicates (and nodes
// already in the set) are ignored.
func (k *Kernel) Recoverable(erased []int) bool {
	n0 := len(k.eset)
	for _, v := range erased {
		// epos[v] is stale unless v is in the set, which eset confirms.
		if i := k.epos[v]; int(i) >= len(k.eset) || k.eset[i] != int32(v) {
			k.EraseOne(v)
		}
	}
	ok := k.Eval()
	for len(k.eset) > n0 {
		k.RestoreOne(int(k.eset[len(k.eset)-1]))
	}
	return ok
}
