package netem

import (
	"fmt"
	"math/rand"
	"testing"

	"starlinkperf/internal/sim"
)

// fibBitsChoices covers the mask-length edge cases: negative (dead in the
// linear scan), 0 (matches everything), 32 and beyond (exact equality), and
// ordinary interior lengths.
var fibBitsChoices = []int{-1, 0, 1, 5, 8, 15, 16, 24, 31, 32, 33, 40}

// routeLog applies route edits to a node and keeps its own ordered record
// of them, which the oracle reads instead of the tables under test.
type routeLog struct {
	n     *Node
	edits []routeEdit
}

type routeEdit struct {
	kind routeKind
	addr Addr
	bits int
	link *Link
}

type routeKind uint8

const (
	editExact routeKind = iota
	editPrefix
	editDefault
)

func (r *routeLog) addRoute(dst Addr, l *Link) {
	r.n.AddRoute(dst, l)
	r.edits = append(r.edits, routeEdit{kind: editExact, addr: dst, link: l})
}

func (r *routeLog) addPrefixRoute(prefix Addr, bits int, l *Link) {
	r.n.AddPrefixRoute(prefix, bits, l)
	r.edits = append(r.edits, routeEdit{kind: editPrefix, addr: prefix, bits: bits, link: l})
}

func (r *routeLog) setDefaultRoute(l *Link) {
	r.n.SetDefaultRoute(l)
	r.edits = append(r.edits, routeEdit{kind: editDefault, link: l})
}

// randomFIBNode builds a router with four neighbors and a randomized
// route table: exact routes (re-adds of a destination included), prefix
// routes (with duplicate prefixes and edge-case mask lengths), and
// sometimes a default route. Addresses are drawn from a small pool so
// exact/prefix collisions actually happen.
func randomFIBNode(tb testing.TB, rng *rand.Rand, nRoutes int) (*routeLog, []*Link) {
	tb.Helper()
	s := sim.NewScheduler(1)
	nw := New(s)
	r := &routeLog{n: nw.NewNode("r", MustParseAddr("10.255.0.1"))}
	links := make([]*Link, 4)
	for i := range links {
		peer := nw.NewNode(fmt.Sprintf("p%d", i), Addr(0x0afe0000+uint32(i)))
		links[i], _ = nw.Connect(r.n, peer, LinkConfig{})
	}
	for i := 0; i < nRoutes; i++ {
		addr := fibRandAddr(rng)
		l := links[rng.Intn(len(links))]
		if rng.Intn(2) == 0 {
			r.addRoute(addr, l)
		} else {
			r.addPrefixRoute(addr, fibBitsChoices[rng.Intn(len(fibBitsChoices))], l)
		}
	}
	if rng.Intn(2) == 0 {
		r.setDefaultRoute(links[rng.Intn(len(links))])
	}
	return r, links
}

// fibRandAddr mixes a small clustered pool (to force prefix overlaps and
// exact-route collisions) with uniform draws.
func fibRandAddr(rng *rand.Rand) Addr {
	if rng.Intn(2) == 0 {
		return Addr(0x0a000000 | uint32(rng.Intn(64)) | uint32(rng.Intn(4))<<16)
	}
	return Addr(rng.Uint32())
}

// referenceLookup is the route oracle — the decision rule spelled out the
// slow way over the edit log: the last exact route installed for dst,
// else a linear longest-prefix scan in insertion order with a strict
// improvement test, else the last default route.
func (r *routeLog) referenceLookup(dst Addr) *Link {
	var exact, best, def *Link
	bestBits := -1
	for _, e := range r.edits {
		switch e.kind {
		case editExact:
			if e.addr == dst {
				exact = e.link
			}
		case editPrefix:
			if e.bits > bestBits && matchPrefix(dst, e.addr, e.bits) {
				best, bestBits = e.link, e.bits
			}
		case editDefault:
			def = e.link
		}
	}
	switch {
	case exact != nil:
		return exact
	case best != nil:
		return best
	}
	return def
}

// checkRouteTables checks the tables' own invariants against the log:
// one exact entry per destination, strictly ascending; one prefix entry
// per non-negative AddPrefixRoute, longest mask first.
func checkRouteTables(t *testing.T, r *routeLog) {
	t.Helper()
	dsts, prefixes := map[Addr]bool{}, 0
	for _, e := range r.edits {
		switch {
		case e.kind == editExact:
			dsts[e.addr] = true
		case e.kind == editPrefix && e.bits >= 0:
			prefixes++
		}
	}
	if len(r.n.exact) != len(dsts) || len(r.n.prefixes) != prefixes {
		t.Fatalf("%d exact and %d prefix entries, the log installs %d and %d", len(r.n.exact), len(r.n.prefixes), len(dsts), prefixes)
	}
	for i := 1; i < len(r.n.exact); i++ {
		if r.n.exact[i-1].dst >= r.n.exact[i].dst {
			t.Fatalf("exact table out of order at %d: %v then %v", i, r.n.exact[i-1].dst, r.n.exact[i].dst)
		}
	}
	for i := 1; i < len(r.n.prefixes); i++ {
		if r.n.prefixes[i-1].bits < r.n.prefixes[i].bits {
			t.Fatalf("prefix table out of order at %d: /%d then /%d", i, r.n.prefixes[i-1].bits, r.n.prefixes[i].bits)
		}
	}
}

func matchPrefix(a, prefix Addr, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return a == prefix
	}
	shift := 32 - bits
	return a>>shift == prefix>>shift
}

// bindLog applies binds and unbinds to a node and keeps its own ordered
// record of them (a nil handler is an Unbind) for the delivery oracle.
type bindLog struct {
	n     *Node
	edits []bindEdit
}

type bindEdit struct {
	proto Proto
	port  uint16
	h     Handler
}

func (b *bindLog) bind(proto Proto, port uint16, h Handler) {
	b.n.Bind(proto, port, h)
	b.edits = append(b.edits, bindEdit{proto, port, h})
}

func (b *bindLog) unbind(proto Proto, port uint16) {
	b.n.Unbind(proto, port)
	b.edits = append(b.edits, bindEdit{proto, port, nil})
}

// bound is the handler the last edit of (proto, port) left, nil if none.
func (b *bindLog) bound(proto Proto, port uint16) Handler {
	var h Handler
	for _, e := range b.edits {
		if e.proto == proto && e.port == port {
			h = e.h
		}
	}
	return h
}

// referenceHandler is the delivery oracle: two probes of the log, the
// exact (proto, port) then the port-0 wildcard.
func (b *bindLog) referenceHandler(proto Proto, port uint16) Handler {
	if h := b.bound(proto, port); h != nil {
		return h
	}
	return b.bound(proto, 0)
}

// The sorted handler table must dispatch like the log of binds and
// unbinds says, through any sequence of them, wildcards and unbinds of
// ports that were never bound included.
func TestHandlerTableMatchesMapProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	protos := []Proto{ProtoUDP, ProtoTCP, ProtoICMP}
	for trial := 0; trial < 100; trial++ {
		nw := New(sim.NewScheduler(1))
		b := &bindLog{n: nw.NewNode("n", MustParseAddr("10.0.0.1"))}
		b.unbind(ProtoTCP, 80) // nothing bound yet
		called := -1
		for step := 0; step < 40; step++ {
			proto, port := protos[rng.Intn(len(protos))], uint16(rng.Intn(6)) // port 0 binds the wildcard
			switch {
			case b.bound(proto, port) != nil || rng.Intn(4) == 0:
				b.unbind(proto, port)
			default:
				id := step
				b.bind(proto, port, func(*Packet) { called = id })
			}
			for i := 1; i < len(b.n.handlers); i++ {
				if b.n.handlers[i-1].key >= b.n.handlers[i].key {
					t.Fatalf("trial %d step %d: handler table out of order at %d", trial, step, i)
				}
			}
			for _, proto := range protos {
				for port := uint16(0); port < 8; port++ {
					got, want := -1, -1
					if h := b.n.lookupHandler(proto, port); h != nil {
						h(nil)
						got = called
					}
					if h := b.referenceHandler(proto, port); h != nil {
						h(nil)
						want = called
					}
					if got != want {
						t.Fatalf("trial %d step %d: (%v, %d) dispatches to handler %d, the log to %d", trial, step, proto, port, got, want)
					}
				}
			}
		}
	}
}

func checkFIBAgainstReference(t *testing.T, r *routeLog, dst Addr) {
	t.Helper()
	got, want := r.n.lookupRoute(dst), r.referenceLookup(dst)
	if got != want {
		t.Fatalf("lookup(%v) = %v, reference scan = %v (exact=%d prefix=%d default=%v)",
			dst, linkName(got), linkName(want), len(r.n.exact), len(r.n.prefixes), r.n.defaultRoute != nil)
	}
}

func linkName(l *Link) string {
	if l == nil {
		return "<none>"
	}
	return l.name
}

// The route tables must make the same decision as the edit log's
// exact + linear-scan + default oracle for every destination, on
// randomized tables including re-added destinations, duplicate prefixes,
// /0 and /32+ masks, and negative (dead) mask lengths — and keep agreeing
// after mid-trial table changes that must invalidate the cache.
func TestFlatFIBMatchesReferenceLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 150; trial++ {
		r, links := randomFIBNode(t, rng, 1+rng.Intn(24))
		probe := func() {
			checkRouteTables(t, r)
			for i := 0; i < 64; i++ {
				checkFIBAgainstReference(t, r, fibRandAddr(rng))
			}
			for _, e := range r.edits {
				checkFIBAgainstReference(t, r, e.addr)
				checkFIBAgainstReference(t, r, e.addr^1)
				checkFIBAgainstReference(t, r, e.addr^(1<<20))
			}
		}
		probe()

		// Mutate mid-trial: the cached decisions for these destinations
		// must be invalidated by the edits.
		cached := fibRandAddr(rng)
		checkFIBAgainstReference(t, r, cached)
		r.addRoute(cached, links[rng.Intn(len(links))])
		checkFIBAgainstReference(t, r, cached)
		r.addRoute(cached, links[rng.Intn(len(links))]) // re-add: replaces the link
		checkFIBAgainstReference(t, r, cached)
		for _, e := range r.edits {
			if e.kind == editExact {
				r.addRoute(e.addr, links[rng.Intn(len(links))])
				break
			}
		}
		r.addPrefixRoute(cached&^0xffff, 16, links[rng.Intn(len(links))])
		r.setDefaultRoute(links[rng.Intn(len(links))])
		probe()
	}
}

// A destination resolved through the default route must be re-resolved
// after an exact route appears for it, after that route is re-added to
// another link and after the default changes: the last-destination cache
// cannot serve stale decisions across a table change.
func TestFIBCacheInvalidatedOnRouteChange(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := New(s)
	r := nw.NewNode("r", MustParseAddr("10.255.0.1"))
	p0 := nw.NewNode("p0", MustParseAddr("10.254.0.0"))
	p1 := nw.NewNode("p1", MustParseAddr("10.254.0.1"))
	l0, _ := nw.Connect(r, p0, LinkConfig{})
	l1, _ := nw.Connect(r, p1, LinkConfig{})

	dst := MustParseAddr("8.8.8.8")
	r.SetDefaultRoute(l0)
	if got := r.lookupRoute(dst); got != l0 {
		t.Fatalf("default-routed lookup = %v, want %v", linkName(got), l0.name)
	}
	r.AddRoute(dst, l1)
	if got := r.lookupRoute(dst); got != l1 {
		t.Fatalf("post-change lookup = %v, want %v (stale cache?)", linkName(got), l1.name)
	}
	r.AddPrefixRoute(MustParseAddr("9.0.0.0"), 8, l0)
	probe := MustParseAddr("9.1.2.3")
	if got := r.lookupRoute(probe); got != l0 {
		t.Fatalf("prefix lookup = %v, want %v", linkName(got), l0.name)
	}
	r.AddPrefixRoute(MustParseAddr("9.1.0.0"), 16, l1)
	if got := r.lookupRoute(probe); got != l1 {
		t.Fatalf("longest-prefix after insert = %v, want %v", linkName(got), l1.name)
	}
	r.AddRoute(dst, l0)
	if got := r.lookupRoute(dst); got != l0 {
		t.Fatalf("lookup after re-adding the destination = %v, want %v", linkName(got), l0.name)
	}
	other := MustParseAddr("1.1.1.1")
	if got := r.lookupRoute(other); got != l0 {
		t.Fatalf("default-routed lookup = %v, want %v", linkName(got), l0.name)
	}
	r.SetDefaultRoute(l1)
	if got := r.lookupRoute(other); got != l1 {
		t.Fatalf("lookup after a default change = %v, want %v", linkName(got), l1.name)
	}
}

// FuzzFlatFIB drives the decision-identity property from fuzzed inputs:
// the table layout comes from the seed, the probed destination from the
// fuzzer.
func FuzzFlatFIB(f *testing.F) {
	f.Add(uint32(0x0a000001), int64(1), uint8(4))
	f.Add(uint32(0xffffffff), int64(42), uint8(24))
	f.Add(uint32(0), int64(7), uint8(1))
	f.Fuzz(func(t *testing.T, dst uint32, seed int64, nRoutes uint8) {
		rng := rand.New(rand.NewSource(seed))
		r, _ := randomFIBNode(t, rng, 1+int(nRoutes)%24)
		got, want := r.n.lookupRoute(Addr(dst)), r.referenceLookup(Addr(dst))
		if got != want {
			t.Fatalf("lookup(%v) = %v, reference scan = %v", Addr(dst), linkName(got), linkName(want))
		}
	})
}
