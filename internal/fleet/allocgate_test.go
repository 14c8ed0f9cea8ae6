package fleet

import (
	"testing"
	"time"

	"starlinkperf/internal/sim"
)

// epochClock hands out epoch instants the way a campaign does: each call
// is the next 15 s epoch, never one seen before. The gates below warm a
// fleet on the first epochs (candidate scratch grows to its working size)
// and then measure on fresh ones — there is no set of instants a cache
// could have been fitted to.
type epochClock struct{ e int }

func (c *epochClock) next() (int, sim.Time) {
	e := c.e
	c.e++
	return e, sim.Time(int64(e) * int64(15*time.Second))
}

// warmEpochs is how many epochs a gate runs before it measures.
const warmEpochs = 8

// TestAllocGateFleetReassign holds the per-epoch cell-indexed
// reassignment path — snapshot refill, candidate CSR build, per-terminal
// scan, gateway selection, delay derivation — to zero allocations per
// fresh epoch on a single worker.
func TestAllocGateFleetReassign(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		_, at := clk.next()
		fl.ReassignAt(at)
	}
	if avg := testing.AllocsPerRun(80, func() {
		_, at := clk.next()
		fl.ReassignAt(at)
	}); avg != 0 {
		t.Errorf("fleet reassign: %v allocs per fresh epoch, want 0", avg)
	}
}

// TestAllocGateObserveEpoch extends the gate over the beam-contention
// accounting pass (without obs attached — tracer emission is itself
// alloc-free but counter registration happens at New time either way).
func TestAllocGateObserveEpoch(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		e, at := clk.next()
		fl.ReassignAt(at)
		fl.observeEpoch(e, at)
	}
	if avg := testing.AllocsPerRun(40, func() {
		e, at := clk.next()
		fl.ReassignAt(at)
		fl.observeEpoch(e, at)
	}); avg != 0 {
		t.Errorf("reassign+observe: %v allocs per fresh epoch, want 0", avg)
	}
}

// TestAllocGateFleetEpoch100k holds the 100k-terminal partitioned epoch
// path — pooled multi-worker reassignment plus the scratch-and-merge
// observation phase — to zero allocations per fresh epoch: the pool hands
// out channel tokens instead of spawning goroutines, every worker
// observes into preallocated scratch, and the merge is pure integer adds,
// so epoch cost is flat at any fleet size once warm.
func TestAllocGateFleetEpoch100k(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 100000, Workers: 4})
	defer fl.Close()
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		fl.RunEpoch(clk.next())
	}
	if avg := testing.AllocsPerRun(8, func() {
		fl.RunEpoch(clk.next())
	}); avg != 0 {
		t.Errorf("100k pooled epoch: %v allocs per fresh epoch, want 0", avg)
	}
}

// BenchmarkReassignCellIndex measures the per-epoch cost of the
// cell-indexed path on a 10k-terminal Gen1 fleet, one fresh epoch per
// iteration. Must report 0 allocs/op.
func BenchmarkReassignCellIndex(b *testing.B) {
	fl := New(Config{Seed: 5, Terminals: 10000, Workers: 1})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		_, at := clk.next()
		fl.ReassignAt(at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, at := clk.next()
		fl.ReassignAt(at)
	}
}

// BenchmarkReassignReference is the oracle's naive O(N×M) scan on the same
// fleet: what the cell index saves.
func BenchmarkReassignReference(b *testing.B) {
	fl := New(Config{Seed: 5, Terminals: 10000, Workers: 1})
	var clk epochClock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, at := clk.next()
		fl.referenceReassignAt(at)
	}
}
