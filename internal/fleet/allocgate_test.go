package fleet

import (
	"runtime"
	"testing"
	"time"

	"starlinkperf/internal/obs"
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

// TestAllocGateFleetReassign holds the per-epoch cell walk — snapshot
// refill, per-cell admission with the listed satellites' gateways,
// per-terminal scan, delay derivation, beam-contention accounting and the
// merge — to zero allocations per fresh epoch on a single worker.
func TestAllocGateFleetReassign(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		fl.RunEpoch(clk.next())
	}
	if avg := testing.AllocsPerRun(80, func() {
		fl.RunEpoch(clk.next())
	}); avg != 0 {
		t.Errorf("fleet epoch: %v allocs per fresh epoch, want 0", avg)
	}
}

// TestAllocGateObserveEpoch extends the gate to an observed fleet: the
// per-region histograms, counters and the epoch's trace records (counter
// registration happens at New time).
func TestAllocGateObserveEpoch(t *testing.T) {
	fl := New(Config{Seed: 5, Terminals: 3000, Workers: 1, Obs: obs.NewSink()})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		fl.RunEpoch(clk.next())
	}
	if avg := testing.AllocsPerRun(40, func() {
		fl.RunEpoch(clk.next())
	}); avg != 0 {
		t.Errorf("observed epoch: %v allocs per fresh epoch, want 0", avg)
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

// liveHeap returns the bytes the heap holds live after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAllocGateFleetBytesPerTerminal holds the standing state of a
// 100k-terminal fleet on two workers — terminal SoA, cell index, candidate
// and satellite tables, accumulators and worker scratch, after one epoch —
// to 64 B per terminal: the 51 B of terminal state plus what the index and
// the accumulators cost spread over the fleet. The SoA keeps only what an
// epoch reads, at the width its values need (DESIGN.md §7 Memory budget).
func TestAllocGateFleetBytesPerTerminal(t *testing.T) {
	const n = 100000
	before := liveHeap()
	fl := New(Config{Seed: 1, Terminals: n, Workers: 2})
	defer fl.Close()
	fl.RunEpoch(0, 0)
	after := liveHeap()
	runtime.KeepAlive(fl)
	per := (float64(after) - float64(before)) / n
	t.Logf("standing 100k fleet: %.2f B/terminal", per)
	if per > 64 {
		t.Errorf("standing 100k fleet holds %.2f B per terminal, want <= 64", per)
	}
}

// BenchmarkReassignCellIndex measures the per-epoch cost of the
// cell-indexed path on a 10k-terminal Gen1 fleet, one fresh epoch per
// iteration. Must report 0 allocs/op.
func BenchmarkReassignCellIndex(b *testing.B) {
	fl := New(Config{Seed: 5, Terminals: 10000, Workers: 1})
	var clk epochClock
	for i := 0; i < warmEpochs; i++ {
		fl.RunEpoch(clk.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.RunEpoch(clk.next())
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
