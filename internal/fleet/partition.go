package fleet

// PartitionMap splits the fleet into contiguous runs of geodesic cells,
// balanced by terminal count — the spatial decomposition the traffic
// scenario builds its independent shards on. Cutting on cell boundaries
// keeps every per-cell structure (the reassignment candidate lists, the
// beam contention pass) wholly inside one partition, and because terminals
// are sorted by (cell, placement index), each partition also owns one
// contiguous terminal range. The map is a pure function of (placement,
// part count): it never looks at worker counts, wall clocks or anything
// else that varies between runs.
type PartitionMap struct {
	// Parts is the partition count actually used (never more than the
	// number of cells holding terminals).
	Parts int
	// TermStart is the CSR over the cell-sorted terminal array: partition
	// p owns terminals [TermStart[p], TermStart[p+1]).
	TermStart []int32
}

// PartitionTerminals builds the partition map for parts partitions. The
// greedy walk closes partition p once it holds at least the next p/parts
// share of terminals, so partition loads stay within one cell of even.
// parts is clamped to [1, terminals] (empty partitions would be pure
// overhead).
func (f *Fleet) PartitionTerminals(parts int) *PartitionMap {
	n := len(f.sat)
	if parts < 1 {
		parts = 1
	}
	if parts > n && n > 0 {
		parts = n
	}
	pm := &PartitionMap{TermStart: make([]int32, 1, parts+1)}
	part := int32(0)
	cum := int32(0)
	for c := 0; c < f.grid.nCells; c++ {
		// Close the current partition when it has reached its share and
		// there are still partitions left to fill.
		if int(part) < parts-1 && int(cum) < n && cum >= int32((int64(part)+1)*int64(n)/int64(parts)) && cum > pm.TermStart[part] {
			pm.TermStart = append(pm.TermStart, cum)
			part++
		}
		cum += f.cellStart[c+1] - f.cellStart[c]
	}
	pm.TermStart = append(pm.TermStart, int32(n))
	pm.Parts = int(part) + 1
	return pm
}
