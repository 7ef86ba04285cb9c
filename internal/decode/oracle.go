package decode

// Threshold returns T, the length of the shortest prefix of order whose
// nodes reconstruct every data node, clamped to [from, limit+1]: from when
// order[:from] already decodes, limit+1 when order[:limit] does not. order
// lists nodes in the order their blocks arrive, none twice; 0 <= from <=
// limit, and limit is clamped to len(order). Decodability is monotone in the prefix, so with k
// nodes erased from the end of the order, data survives exactly when
// T <= len(order)−k.
//
// The order is peeled once, as it arrives, and only between from and
// limit: each arrival that peeling has not already rebuilt is made present
// and the early-stopping peel runs. From under half the order it starts
// with everything erased (a copy of each check's left degree), otherwise
// with order[:from] present and the rest erased, so the start changes the
// fewer nodes; either way the whole order costs at most one O(edges) peel,
// not one per prefix length. Nothing allocates in the steady state. Call it at baseline; it
// returns there. It is the oracle of SlicedKernel.Thresholds, which reads
// the failure profile's arrival orders 64 at a time.
func (d *Decoder) Threshold(order []int, from, limit int) int {
	limit = min(limit, len(order))
	p := &d.peeler
	n := from
	built := 2*from < len(order)
	if built {
		if d.erasedMissing == nil {
			d.erasedMissing = make([]int32, d.c.Total)
			for r := d.c.Data; r < d.c.Total; r++ {
				d.erasedMissing[r] = int32(len(d.c.LeftNeighbors(r)))
			}
		}
		clear(p.present)
		copy(p.missing, d.erasedMissing)
		p.lostData = d.c.Data
		n = 0
	} else {
		d.Erase(order[from:]...)
	}
	for p.peel(nil, false); p.lostData > 0; p.peel(nil, false) {
		if n >= limit {
			n = limit + 1 // limit arrivals do not decode
			break
		}
		if v := int32(order[n]); !p.present[v] {
			p.makePresent(v)
		}
		n++
	}
	if built {
		for v := range p.present {
			p.present[v] = true
		}
		clear(p.missing)
		p.stack = p.stack[:0]
		p.lostData = 0
	} else {
		d.Reset()
	}
	return max(n, from)
}
