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

// randomFIBNode builds a router with nLinks neighbors and a randomized
// route table: exact routes, prefix routes (with duplicate prefixes and
// edge-case mask lengths), and sometimes a default route. Addresses are
// drawn from a small pool so exact/prefix collisions actually happen.
func randomFIBNode(tb testing.TB, rng *rand.Rand, nRoutes int) (*Node, []*Link) {
	tb.Helper()
	s := sim.NewScheduler(1)
	nw := New(s)
	r := nw.NewNode("r", MustParseAddr("10.255.0.1"))
	links := make([]*Link, 4)
	for i := range links {
		peer := nw.NewNode(fmt.Sprintf("p%d", i), Addr(0x0afe0000+uint32(i)))
		links[i], _ = nw.Connect(r, peer, LinkConfig{})
	}
	for i := 0; i < nRoutes; i++ {
		addr := fibRandAddr(rng)
		l := links[rng.Intn(len(links))]
		if rng.Intn(2) == 0 {
			r.AddRoute(addr, l)
		} else {
			r.AddPrefixRoute(addr, fibBitsChoices[rng.Intn(len(fibBitsChoices))], l)
		}
	}
	if rng.Intn(2) == 0 {
		r.SetDefaultRoute(links[rng.Intn(len(links))])
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
// slow way: the exact map, then a linear longest-prefix scan in insertion
// order with a strict improvement test, then the default route.
func (n *Node) referenceLookup(dst Addr) *Link {
	if l, ok := n.routes[dst]; ok {
		return l
	}
	var best *Link
	bestBits := -1
	for _, pr := range n.prefixRoutes {
		if pr.bits > bestBits && matchPrefix(dst, pr.prefix, pr.bits) {
			best = pr.link
			bestBits = pr.bits
		}
	}
	if best != nil {
		return best
	}
	return n.defaultRoute
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

// referenceHandler is the delivery oracle: two probes of the handlers map
// Bind and Unbind write, the exact (proto, port) then the port-0 wildcard.
func (n *Node) referenceHandler(proto Proto, port uint16) Handler {
	if h, ok := n.handlers[protoPort{proto, port}]; ok {
		return h
	}
	return n.handlers[protoPort{proto, 0}]
}

// The sorted handler table must dispatch like the map it is rebuilt from,
// through any sequence of binds and unbinds, wildcards included.
func TestHandlerTableMatchesMapProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	protos := []Proto{ProtoUDP, ProtoTCP, ProtoICMP}
	for trial := 0; trial < 100; trial++ {
		nw := New(sim.NewScheduler(1))
		n := nw.NewNode("n", MustParseAddr("10.0.0.1"))
		called := -1
		for step := 0; step < 40; step++ {
			proto, port := protos[rng.Intn(len(protos))], uint16(rng.Intn(6)) // port 0 binds the wildcard
			if _, bound := n.handlers[protoPort{proto, port}]; bound {
				n.Unbind(proto, port)
			} else {
				id := step
				n.Bind(proto, port, func(*Packet) { called = id })
			}
			for _, proto := range protos {
				for port := uint16(0); port < 8; port++ {
					got, want := -1, -1
					if h := n.lookupHandler(proto, port); h != nil {
						h(nil)
						got = called
					}
					if h := n.referenceHandler(proto, port); h != nil {
						h(nil)
						want = called
					}
					if got != want {
						t.Fatalf("trial %d step %d: (%v, %d) dispatches to handler %d, the map probe to %d", trial, step, proto, port, got, want)
					}
				}
			}
		}
	}
}

func checkFIBAgainstReference(t *testing.T, n *Node, dst Addr) {
	t.Helper()
	got, want := n.lookupRoute(dst), n.referenceLookup(dst)
	if got != want {
		t.Fatalf("lookup(%v) = %v, reference scan = %v (exact=%d prefix=%d default=%v)",
			dst, linkName(got), linkName(want), len(n.routes), len(n.prefixRoutes), n.defaultRoute != nil)
	}
}

func linkName(l *Link) string {
	if l == nil {
		return "<none>"
	}
	return l.name
}

// The flat FIB must make the same decision as the exact-map +
// linear-scan + default oracle for every destination, on randomized
// tables including duplicate prefixes, /0 and /32+ masks, and negative
// (dead) mask lengths — and keep agreeing after mid-trial table changes
// that force rebuilds and cache invalidation.
func TestFlatFIBMatchesReferenceLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 150; trial++ {
		n, links := randomFIBNode(t, rng, 1+rng.Intn(24))
		probe := func() {
			for i := 0; i < 64; i++ {
				checkFIBAgainstReference(t, n, fibRandAddr(rng))
			}
			for _, pr := range n.prefixRoutes {
				checkFIBAgainstReference(t, n, pr.prefix)
				checkFIBAgainstReference(t, n, pr.prefix^1)
				checkFIBAgainstReference(t, n, pr.prefix^(1<<20))
			}
			for dst := range n.routes {
				checkFIBAgainstReference(t, n, dst)
			}
		}
		probe()

		// Mutate mid-trial: the cached decisions for these destinations
		// must be invalidated by the rebuild.
		cached := fibRandAddr(rng)
		checkFIBAgainstReference(t, n, cached)
		n.AddRoute(cached, links[rng.Intn(len(links))])
		checkFIBAgainstReference(t, n, cached)
		n.AddPrefixRoute(cached&^0xffff, 16, links[rng.Intn(len(links))])
		n.SetDefaultRoute(links[rng.Intn(len(links))])
		probe()
	}
}

// A destination resolved through the default route must be re-resolved
// after an exact route appears for it: the last-destination cache cannot
// serve stale decisions across a table change.
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
		n, _ := randomFIBNode(t, rng, 1+int(nRoutes)%24)
		got, want := n.lookupRoute(Addr(dst)), n.referenceLookup(Addr(dst))
		if got != want {
			t.Fatalf("lookup(%v) = %v, reference scan = %v", Addr(dst), linkName(got), linkName(want))
		}
	})
}
