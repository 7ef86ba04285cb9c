package codec

// repairRef is the sweep-to-fixpoint peel the codec's schedule executor is
// held against, kept independent of internal/decode: it scans every check,
// applying both rules on the bytes, until a full pass fills nothing. Like
// Repair, it fills blocks (nil entries are missing; len(blocks) == Total)
// with fresh allocations and reports ErrUnrecoverable if a data block stays
// missing.
func repairRef(c *Codec, blocks [][]byte) error {
	scratch := make([]byte, c.blockSize)
	for changed := true; changed; {
		changed = false
		for r := c.g.Data; r < c.g.Total; r++ {
			lefts := c.g.LeftNeighbors(r)
			missing := -1
			nMissing := 0
			for _, l := range lefts {
				if blocks[l] == nil {
					nMissing++
					missing = int(l)
					if nMissing > 1 {
						break
					}
				}
			}
			switch {
			case blocks[r] != nil && nMissing == 1:
				// Recover the single missing left: XOR of the check and
				// the other lefts.
				copy(scratch, blocks[r])
				for _, l := range lefts {
					if int(l) != missing {
						xorIntoRef(scratch, blocks[l])
					}
				}
				blocks[missing] = append([]byte(nil), scratch...)
				changed = true
			case blocks[r] == nil && nMissing == 0:
				// Recompute the check from its complete left set.
				b := make([]byte, c.blockSize)
				for _, l := range lefts {
					xorIntoRef(b, blocks[l])
				}
				blocks[r] = b
				changed = true
			}
		}
	}
	for i := 0; i < c.g.Data; i++ {
		if blocks[i] == nil {
			return ErrUnrecoverable
		}
	}
	return nil
}
