package fleet

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// ringInstants returns one epoch instant per slot of the constellation
// snapshot ring: cycling through exactly this set keeps every
// SnapshotAt a cache hit, which is the steady state the gates measure
// (a cold instant computes and caches a snapshot, which allocates by
// design).
func ringInstants() [8]sim.Time {
	var at [8]sim.Time
	for i := range at {
		at[i] = sim.Time(int64(i) * int64(15*time.Second))
	}
	return at
}

// TestAllocGateFleetReassign holds the per-epoch cell-indexed
// reassignment path — snapshot lookup, candidate CSR build, per-terminal
// scan, gateway selection, delay derivation — to zero steady-state
// allocations. Single worker: the multi-worker variant pays its
// goroutine spawns and nothing else.
func TestAllocGateFleetReassign(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1})
	instants := ringInstants()
	// Warm: fill the snapshot ring and grow the candidate scratch to its
	// high-water mark across all eight instants.
	for r := 0; r < 3; r++ {
		for _, at := range instants {
			fl.ReassignAt(at)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(80, func() {
		fl.ReassignAt(instants[i%len(instants)])
		i++
	}); avg != 0 {
		t.Errorf("fleet reassign: %v allocs per epoch, want 0", avg)
	}
}

// TestAllocGateObserveEpoch extends the gate over the beam-contention
// accounting pass (without obs attached — tracer emission is itself
// alloc-free but counter registration happens at New time either way).
func TestAllocGateObserveEpoch(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1})
	instants := ringInstants()
	for r := 0; r < 3; r++ {
		for e, at := range instants {
			fl.ReassignAt(at)
			fl.observeEpoch(e, at)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(40, func() {
		at := instants[i%len(instants)]
		fl.ReassignAt(at)
		fl.observeEpoch(i%len(instants), at)
		i++
	}); avg != 0 {
		t.Errorf("reassign+observe epoch: %v allocs, want 0", avg)
	}
}

// TestAllocGateFleetEpoch100k holds the 100k-terminal partitioned epoch
// path — pooled multi-worker reassignment plus the scratch-and-merge
// observation phase — to zero steady-state allocations: the pool hands
// out channel tokens instead of spawning goroutines, every worker
// observes into preallocated scratch, and the merge is pure integer adds,
// so epoch cost is flat at any fleet size once warm.
func TestAllocGateFleetEpoch100k(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 100000, Workers: 4})
	defer fl.Close()
	instants := ringInstants()
	for r := 0; r < 2; r++ {
		for e, at := range instants {
			fl.RunEpoch(e, at)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(8, func() {
		fl.RunEpoch(i%len(instants), instants[i%len(instants)])
		i++
	}); avg != 0 {
		t.Errorf("100k pooled epoch: %v allocs, want 0", avg)
	}
}

// BenchmarkReassignCellIndex measures the steady-state per-epoch cost of
// the cell-indexed path on a 10k-terminal Gen1 fleet. Must report
// 0 allocs/op.
func BenchmarkReassignCellIndex(b *testing.B) {
	fl := New(Config{Seed: 5, Terminals: 10000, Workers: 1})
	instants := ringInstants()
	for r := 0; r < 2; r++ {
		for _, at := range instants {
			fl.ReassignAt(at)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.ReassignAt(instants[i%len(instants)])
	}
}

// BenchmarkReassignReference is the oracle's naive O(N×M) scan on the same
// fleet: what the cell index saves.
func BenchmarkReassignReference(b *testing.B) {
	fl := New(Config{Seed: 5, Terminals: 10000, Workers: 1})
	instants := ringInstants()
	fl.referenceReassignAt(instants[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.referenceReassignAt(instants[i%len(instants)])
	}
}
