package main

// canonicalHash fingerprints the partition a labelling induces: labels
// are renumbered by first occurrence (the canonical form of a partition)
// and the renumbered sequence is hashed with 64-bit FNV-1a, one 32-bit
// word per label. Two labellings of the same length have equal canonical
// forms exactly when sfcp.SamePartition holds for them, so comparing
// hashes checks an answer against the library without keeping megabytes
// of labels per request. table is scratch space reused across calls (all
// -1 between calls); the updated one is returned.
func canonicalHash[L ~int | ~int32](labels []L, table []int32) (uint64, []int32) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := (uint64(offset) ^ uint64(len(labels))) * prime
	next := int32(0)
	for _, l := range labels {
		if l < 0 {
			h = (h ^ 1<<32) * prime // not a valid label: poison the hash
			continue
		}
		for int(l) >= len(table) {
			table = append(table, -1)
		}
		if table[l] < 0 {
			table[l] = next
			next++
		}
		h = (h ^ uint64(table[l])) * prime
	}
	for _, l := range labels { // leave the table all -1 again
		if l >= 0 {
			table[l] = -1
		}
	}
	return h, table
}
