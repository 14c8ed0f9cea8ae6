package leo

import (
	"math"
	"time"

	"starlinkperf/internal/geo"
	"starlinkperf/internal/sim"
)

// ISLRouter computes shortest propagation paths through a constellation
// using +Grid inter-satellite links: each satellite links to its two
// in-plane neighbours and to the same-index satellite in the two adjacent
// planes. The paper found ISLs *not* enabled during its campaign (bent
// pipe, European exits even for Singapore); this router powers the
// ablation bench showing what ISL activation would change.
type ISLRouter struct {
	con      *Constellation
	shell    *Shell
	shellIdx int

	// Scratch reused across PathDelay calls (the router, like the rest
	// of the simulation objects, is single-threaded per shard).
	snap    Snapshot
	dist    []float64
	hops    []int
	exitUp  []float64 // -1 marks "not an exit"
	entries []islEntry
	q       pq
}

// islEntry is an uplink candidate: a satellite visible from the source.
type islEntry struct {
	node satNode
	up   float64
}

// NewISLRouter builds a router over a single shell of a constellation.
func NewISLRouter(con *Constellation, shellIdx int) *ISLRouter {
	return &ISLRouter{con: con, shell: con.Shells()[shellIdx], shellIdx: shellIdx}
}

type satNode struct {
	plane, idx int
}

type pqItem struct {
	node satNode
	dist float64 // km
}

// pq is a typed binary min-heap on dist. container/heap would box every
// pqItem through its `any` interface — thousands of heap allocations per
// PathDelay — so the two sift operations are hand-rolled.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].dist < h[small].dist {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*p = h
	return top
}

// PathDelay returns the one-way propagation delay from src to dst ground
// positions at instant at, going up to the best visible satellite at each
// end and across the +Grid ISL mesh, plus the number of ISL hops used.
// ok=false when either endpoint has no visible satellite.
func (r *ISLRouter) PathDelay(at sim.Time, src, dst geo.LatLon, minElevationDeg float64) (d time.Duration, islHops int, ok bool) {
	cfg := r.shell.Config()
	planes, per := cfg.Planes, cfg.SatsPerPlane

	// One propagation pass per call into the router's own table: Dijkstra
	// reads each position several times.
	r.con.FillSnapshot(&r.snap, at)
	pos := r.snap.ShellPositions(r.shellIdx)
	idxOf := func(n satNode) int { return n.plane*per + n.idx }

	// Endpoint geometry once per call; per-candidate visibility is the
	// ECEF-native sine comparison (no LatLon round trip, no asin).
	srcECEF, dstECEF := src.ToECEF(), dst.ToECEF()
	srcNorm, dstNorm := srcECEF.Norm(), dstECEF.Norm()
	sinMask := math.Sin(geo.Radians(minElevationDeg))

	// Entry candidates: satellites visible from src; exit: visible from dst.
	n := planes * per
	if cap(r.dist) < n {
		r.dist = make([]float64, n)
		r.hops = make([]int, n)
		r.exitUp = make([]float64, n)
	}
	const inf = 1e18
	dist, hops, exitUp := r.dist[:n], r.hops[:n], r.exitUp[:n]
	for i := range dist {
		dist[i] = inf
		hops[i] = 0
		exitUp[i] = -1
	}
	entries := r.entries[:0]
	nExits := 0
	for p := 0; p < planes; p++ {
		for i := 0; i < per; i++ {
			if !r.shell.Enabled(p, i) {
				continue
			}
			sat := pos[p*per+i]
			if d := sat.Sub(srcECEF); d.Dot(srcECEF) >= sinMask*d.Norm()*srcNorm {
				entries = append(entries, islEntry{satNode{p, i}, d.Norm()})
			}
			if d := sat.Sub(dstECEF); d.Dot(dstECEF) >= sinMask*d.Norm()*dstNorm {
				exitUp[p*per+i] = d.Norm()
				nExits++
			}
		}
	}
	r.entries = entries
	if len(entries) == 0 || nExits == 0 {
		return 0, 0, false
	}

	// Dijkstra over satellites, seeded with the uplink distances.
	q := r.q[:0]
	for _, e := range entries {
		i := idxOf(e.node)
		if e.up < dist[i] {
			dist[i] = e.up
			q.push(pqItem{e.node, e.up})
		}
	}

	bestTotal := inf
	bestHops := 0
	for len(q) > 0 {
		it := q.pop()
		i := idxOf(it.node)
		if it.dist > dist[i] {
			continue
		}
		if down := exitUp[i]; down >= 0 {
			if total := it.dist + down; total < bestTotal {
				bestTotal = total
				bestHops = hops[i]
			}
		}
		nbs := [4]satNode{
			{it.node.plane, (it.node.idx + 1) % per},
			{it.node.plane, (it.node.idx - 1 + per) % per},
			{(it.node.plane + 1) % planes, it.node.idx},
			{(it.node.plane - 1 + planes) % planes, it.node.idx},
		}
		for _, nb := range nbs {
			if !r.shell.Enabled(nb.plane, nb.idx) {
				continue
			}
			j := idxOf(nb)
			nd := it.dist + pos[i].Distance(pos[j])
			if nd < dist[j] {
				dist[j] = nd
				hops[j] = hops[i] + 1
				q.push(pqItem{nb, nd})
			}
		}
	}
	r.q = q[:0]
	if bestTotal >= inf {
		return 0, 0, false
	}
	return geo.RadioDelay(bestTotal), bestHops, true
}
