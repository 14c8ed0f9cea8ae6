package leo

import (
	"slices"
	"testing"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// The geometry fast path (ECEF-native elevation, per-plane candidate
// pruning, the assignment and delay memos) must be a pure optimization:
// assignments and delays have to come out bit-identical to the naive
// full scan below.

// referenceAssignmentAt is the assignment oracle: for the epoch containing
// at, scan every enabled satellite, round-trip positions through LatLon,
// compare elevations in degrees — uncached, unpruned, the way the code
// read before the geometry fast path.
func (t *Terminal) referenceAssignmentAt(at sim.Time) Assignment {
	ep := t.epochOf(at)
	return t.computeAssignmentReference(sim.Time(ep * t.epochNS))
}

func (t *Terminal) computeAssignmentReference(at sim.Time) Assignment {
	best := Assignment{}
	bestElev := -1.0
	t.con.ForEach(func(id SatID) {
		satPos := t.con.Position(id, at)
		satLL := satPos.ToLatLon()
		elev := geo.ElevationDeg(t.cfg.Pos, satLL)
		if elev < t.cfg.MinElevationDeg || elev <= bestElev {
			return
		}
		gw := t.referenceBestGateway(satLL, satPos)
		if gw < 0 {
			return
		}
		best = Assignment{Sat: id, Gateway: gw, OK: true}
		bestElev = elev
	})
	return best
}

// referenceBestGateway is the naive per-candidate gateway selection, with
// the default-mask rule applied inside the loop as the original code did.
func (t *Terminal) referenceBestGateway(satLL geo.LatLon, satPos geo.ECEF) int {
	best := -1
	bestRange := 0.0
	for i, gw := range t.gateways {
		mask := gw.MinElevationDeg
		if mask == 0 {
			mask = 10
		}
		if geo.ElevationDeg(gw.Pos, satLL) < mask {
			continue
		}
		r := gw.Pos.ToECEF().Distance(satPos)
		if best < 0 || r < bestRange {
			best, bestRange = i, r
		}
	}
	return best
}

// referenceDelayAt recomputes DelayAt the way the pre-fast-path code did,
// from a reference assignment and per-call ToECEF conversions.
func referenceDelayAt(t *Terminal, a Assignment, at sim.Time) (time.Duration, bool) {
	if !a.OK {
		return -1, false
	}
	satPos := t.con.Position(a.Sat, at)
	up := t.cfg.Pos.ToECEF().Distance(satPos)
	down := satPos.Distance(t.gateways[a.Gateway].Pos.ToECEF())
	return geo.RadioDelay(up + down), true
}

// checkEquivalence drives one observer for the given horizon, comparing
// the fast path against the naive reference every strideEpochs-th epoch.
func checkEquivalence(t *testing.T, pos geo.LatLon, gws []Gateway, horizon time.Duration, strideEpochs int64) (okEpochs, gapEpochs int) {
	t.Helper()
	con := NewConstellation(NewShell(StarlinkGen1()))
	term := NewTerminal(DefaultTerminalConfig(pos), con, gws)
	epoch := int64(term.cfg.Epoch)
	last := int64(horizon) / epoch
	for ep := int64(0); ep <= last; ep += strideEpochs {
		at := sim.Time(ep * epoch)
		fast := term.AssignmentAt(at)
		ref := term.referenceAssignmentAt(at)
		if fast != ref {
			t.Fatalf("epoch %d (%v): fast %+v != reference %+v", ep, at, fast, ref)
		}
		if fast.OK {
			okEpochs++
		} else {
			gapEpochs++
		}
		// Delays inside the epoch, off the epoch boundary, through the
		// delay memo.
		for _, off := range []time.Duration{0, 3 * time.Second, 7300 * time.Millisecond} {
			probe := at + sim.Time(off)
			gotD, gotOK := term.DelayAt(probe)
			wantD, wantOK := referenceDelayAt(term, ref, probe)
			if gotOK != wantOK || (gotOK && gotD != wantD) {
				t.Fatalf("epoch %d +%v: DelayAt = (%v,%v), reference (%v,%v)",
					ep, off, gotD, gotOK, wantD, wantOK)
			}
		}
	}
	return okEpochs, gapEpochs
}

// TestFastPathMatchesReference48h is the headline equivalence proof: 48
// simulated hours at three observer latitudes (equatorial, the paper's
// mid-latitude vantage, and the coverage edge near
// inclination + footprint radius), bit-identical Assignment and DelayAt
// at every checked epoch. The mid-latitude observer — the configuration
// every campaign runs — is checked at every single epoch; the other two
// use a small epoch stride to keep the naive reference scan, which
// dominates this test's runtime, affordable while still spanning the
// full horizon.
func TestFastPathMatchesReference48h(t *testing.T) {
	cases := []struct {
		name   string
		pos    geo.LatLon
		gws    []Gateway // assignment needs a satellite that also sees a gateway
		stride int64
		// wantCoverage: coverage expected at every checked epoch.
		wantCoverage bool
	}{
		{"mid-latitude-louvain", geo.LatLon{LatDeg: 50.67, LonDeg: 4.61},
			testGateways(), 1, true},
		{"equatorial-singapore", geo.LatLon{LatDeg: 1.35, LonDeg: 103.82},
			[]Gateway{{Name: "sg-gw", Pos: geo.LatLon{LatDeg: 1.3, LonDeg: 103.6}, PoP: "SIN"}}, 7, true},
		{"coverage-edge-61.1N", geo.LatLon{LatDeg: 61.1, LonDeg: 10},
			[]Gateway{{Name: "osl-gw", Pos: geo.LatLon{LatDeg: 59.9, LonDeg: 10.7}, PoP: "OSL"}}, 7, false},
	}
	horizon := 48 * time.Hour
	if testing.Short() {
		horizon = 4 * time.Hour
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			okEpochs, gapEpochs := checkEquivalence(t, tc.pos, tc.gws, horizon, tc.stride)
			if okEpochs == 0 {
				t.Error("no served epochs at all; equivalence check is vacuous")
			}
			if tc.wantCoverage && gapEpochs > 0 {
				t.Errorf("%d coverage gaps on a full shell at %v", gapEpochs, tc.pos)
			}
			if !tc.wantCoverage && gapEpochs == 0 {
				t.Error("expected some gaps at the coverage edge; observer placed wrong?")
			}
		})
	}
}

// TestFastPathMatchesReferencePartialShell exercises the fallback-heavy
// regime: a sparse shell has real coverage gaps, so the pruned scan
// frequently comes up empty and the full-scan fallback must still agree
// with the reference.
func TestFastPathMatchesReferencePartialShell(t *testing.T) {
	con := NewConstellation(NewPartialShell(StarlinkGen1(), 0.3))
	term := NewTerminal(DefaultTerminalConfig(louvain), con, testGateways())
	gaps := 0
	for ep := int64(0); ep < 400; ep++ {
		at := sim.Time(ep * int64(15*time.Second))
		fast := term.AssignmentAt(at)
		ref := term.referenceAssignmentAt(at)
		if fast != ref {
			t.Fatalf("epoch %d: fast %+v != reference %+v", ep, fast, ref)
		}
		if !fast.OK {
			gaps++
		}
	}
	if gaps == 0 {
		t.Error("30% shell shows no gaps; fallback path not exercised")
	}
}

// TestNoCoverageAboveInclinationPlusFootprint: at latitude 75° the Gen1
// shell (53° inclination, ~8.5° footprint radius at a 25° mask) can never
// serve; the pruned path must agree with the reference that every epoch
// is a gap — and must prune every plane rather than finding phantom
// candidates.
func TestNoCoverageAboveInclinationPlusFootprint(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	pos := geo.LatLon{LatDeg: 75, LonDeg: 10}
	term := NewTerminal(DefaultTerminalConfig(pos), con, testGateways())
	for ep := int64(0); ep < 500; ep++ {
		at := sim.Time(ep * int64(15*time.Second))
		if a := term.AssignmentAt(at); a.OK {
			t.Fatalf("epoch %d: serving satellite %+v above latitude 75°", ep, a)
		}
		if a := term.referenceAssignmentAt(at); a.OK {
			t.Fatalf("epoch %d: reference found %+v — test premise wrong", ep, a)
		}
	}
}

// TestPruningAtInclinationLatitude puts the observer right at the 53°
// inclination latitude, where planes graze the visibility cone and the
// argument-of-latitude windows are at their most asymmetric. Assignments
// must still match the reference exactly.
func TestPruningAtInclinationLatitude(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	pos := geo.LatLon{LatDeg: 53, LonDeg: -3}
	term := NewTerminal(DefaultTerminalConfig(pos), con, testGateways())
	served := 0
	for ep := int64(0); ep < 1000; ep++ {
		at := sim.Time(ep * int64(15*time.Second))
		fast := term.AssignmentAt(at)
		ref := term.referenceAssignmentAt(at)
		if fast != ref {
			t.Fatalf("epoch %d: fast %+v != reference %+v", ep, fast, ref)
		}
		if fast.OK {
			served++
		}
	}
	if served == 0 {
		t.Error("no served epochs at the inclination latitude")
	}
}

// snapshotsEqual reports whether two snapshots describe the same instant
// with bit-identical tables.
func snapshotsEqual(a, b *Snapshot) bool {
	return a.At == b.At && slices.Equal(a.stride, b.stride) &&
		slices.EqualFunc(a.pos, b.pos, func(x, y []geo.ECEF) bool { return slices.Equal(x, y) })
}

// TestFillSnapshotReuse pins the caller-owned snapshot contract: refilling
// one Snapshot is bit-identical to a fresh SnapshotAt at every instant,
// whatever it held before — an earlier or later instant, a membership
// change in between, or a constellation with other shell sizes — and each
// position is what Shell.Position computes.
func TestFillSnapshotReuse(t *testing.T) {
	con := NewConstellation(NewShell(StarlinkGen1()))
	var reused Snapshot
	check := func(c *Constellation, at sim.Time) {
		t.Helper()
		c.FillSnapshot(&reused, at)
		if fresh := c.SnapshotAt(at); !snapshotsEqual(&reused, fresh) {
			t.Fatalf("at %v: refilled snapshot differs from a fresh one", at)
		}
		c.ForEach(func(id SatID) {
			if got, want := reused.Position(id), c.Position(id, at); got != want {
				t.Fatalf("at %v sat %+v: snapshot %v != Position %v", at, id, got, want)
			}
		})
	}
	// Forward, backward and repeated instants.
	for _, sec := range []int64{0, 15, 30, 15, 7200, 42, 42} {
		check(con, sim.Time(sec*int64(time.Second)))
	}
	// Membership flips change no position: disabled slots are still filled.
	sh := con.Shells()[0]
	sh.SetEnabled(7, 13, false)
	sh.SetEnabled(0, 0, false)
	check(con, sim.Time(45*time.Second))
	if got, want := reused.Position(SatID{Plane: 7, Index: 13}), sh.Position(7, 13, reused.At); got != want {
		t.Errorf("disabled slot: snapshot %v != Position %v", got, want)
	}
	sh.SetEnabled(7, 13, true)
	check(con, sim.Time(60*time.Second))

	// Other shapes through the same storage: smaller, two shells (one of
	// them larger than anything held so far), then back.
	small := ShellConfig{Name: "small", AltKm: 600, InclinationDeg: 70, Planes: 6, SatsPerPlane: 5, PhasingF: 1}
	big := ShellConfig{Name: "big", AltKm: 1100, InclinationDeg: 80, Planes: 80, SatsPerPlane: 30, PhasingF: 7}
	check(NewConstellation(NewShell(small)), sim.Time(75*time.Second))
	check(NewConstellation(NewShell(small), NewShell(big)), sim.Time(90*time.Second))
	check(con, sim.Time(105*time.Second))
}

// TestAssignmentOutOfOrderEpochs queries epochs the way Handovers
// back-fills them — behind the last answer, ahead of it, the same one
// twice — and holds every answer to the from-scratch oracle: the one-slot
// memo must never serve another epoch's assignment.
func TestAssignmentOutOfOrderEpochs(t *testing.T) {
	term := NewTerminal(DefaultTerminalConfig(louvain),
		NewConstellation(NewShell(StarlinkGen1())), testGateways())
	epoch := sim.Time(term.epochNS)
	distinct := map[Assignment]bool{}
	for _, ep := range []int64{40, 39, 38, 40, 40, 0, 41, 2, 1, 0, 300, 41, 299, 300} {
		// Off the boundary: AssignmentAt keys on the epoch, not the instant.
		at := sim.Time(ep)*epoch + epoch/3
		got, want := term.AssignmentAt(at), term.referenceAssignmentAt(at)
		if got != want {
			t.Fatalf("epoch %d: AssignmentAt %+v != reference %+v (stale slot?)", ep, got, want)
		}
		distinct[got] = true
	}
	if len(distinct) < 3 {
		t.Errorf("only %d distinct assignments over the walk; a stale slot would go unnoticed", len(distinct))
	}

	// A Handovers call that ends behind the clock, then the same window
	// again after the clock moved on: same list.
	first := term.Handovers(0, sim.Time(20*time.Minute))
	term.AssignmentAt(sim.Time(2 * time.Hour))
	if again := term.Handovers(0, sim.Time(20*time.Minute)); !slices.Equal(first, again) {
		t.Errorf("Handovers over one window differ after the clock moved: %d vs %d entries", len(first), len(again))
	}
	if len(first) == 0 {
		t.Error("no handovers in 20 minutes; back-fill pattern unexercised")
	}
}

// TestDelaySlotInterleavedFlows replays the access pattern the one-slot
// delay memo does not absorb — multiple flows probing alternating time
// quanta, which no campaign on a single forward clock produces — and
// checks every answer against an uncached naive recomputation.
func TestDelaySlotInterleavedFlows(t *testing.T) {
	term := NewTerminal(DefaultTerminalConfig(louvain),
		NewConstellation(NewShell(StarlinkGen1())), testGateways())
	quanta := []sim.Time{0, sim.Time(250 * time.Millisecond), sim.Time(510 * time.Millisecond)}
	for round := 0; round < 40; round++ {
		for _, q := range quanta {
			at := q + sim.Time(round)*sim.Time(time.Microsecond)
			d, ok := term.DelayAt(at)
			wantD, wantOK := referenceDelayAt(term, term.referenceAssignmentAt(at), at)
			if d != wantD || ok != wantOK {
				t.Fatalf("round %d at %v: DelayAt (%v,%v) != reference (%v,%v)",
					round, at, d, ok, wantD, wantOK)
			}
		}
	}
}
