package netem

import (
	"fmt"
	"slices"
)

// Route and handler tables. Each is one slice, kept sorted by its lookup
// key and edited in place. The route decision — exact beats prefix,
// longest mask wins, earliest inserted wins ties, default last — is the
// one a linear longest-prefix scan over the edits makes; fib_test.go keeps
// that scan, over its own log of the edits, as the oracle. A 4-entry
// last-destination cache in front of the lookup is cleared at every route
// edit.

// exactRoute is one exact-destination route, or one remembered decision
// of the route cache. Node.exact is sorted by dst.
type exactRoute struct {
	dst  Addr
	link *Link
}

// prefixRoute is one prefix route. key is the prefix's significant bits
// (prefixKey). Node.prefixes holds the longest mask first and equal masks
// in insertion order, so the first entry that matches is the decision.
type prefixRoute struct {
	key  Addr
	bits int
	link *Link
}

// routeCacheSize is the per-node last-destination cache (direct-mapped
// on the low address bits). It must stay a power of two.
const routeCacheSize = 4

// prefixKey is a's significant bits under a mask of the given length; for
// lengths of 32 or more — which mean exact equality — it is the full
// address.
func prefixKey(a Addr, bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a >> (32 - bits)
}

// searchExact returns where dst is, or would be inserted, in n.exact, and
// whether it is there. The binary searches are written out rather than
// slices.BinarySearchFunc: they run per packet that misses the route
// cache and per delivered packet, where the generic search's indirect
// comparisons measured three times slower on a 14-entry handler table.
func (n *Node) searchExact(dst Addr) (int, bool) {
	lo, hi := 0, len(n.exact)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.exact[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.exact) && n.exact[lo].dst == dst
}

// AddRoute installs an exact-destination route. Re-adding a destination
// replaces its link.
func (n *Node) AddRoute(dst Addr, via *Link) {
	n.routeCache = [routeCacheSize]exactRoute{}
	i, found := n.searchExact(dst)
	if found {
		n.exact[i].link = via
		return
	}
	n.exact = slices.Insert(n.exact, i, exactRoute{dst: dst, link: via})
}

// AddPrefixRoute installs a route for a prefix of the given bit length.
// Longest prefix wins, the earliest installed among equal lengths; exact
// routes beat prefix routes. A negative length never matches, so such a
// route is not stored.
func (n *Node) AddPrefixRoute(prefix Addr, bits int, via *Link) {
	n.routeCache = [routeCacheSize]exactRoute{}
	if bits < 0 {
		return
	}
	// After every entry at least as long: equal lengths keep their order.
	i := 0
	for i < len(n.prefixes) && n.prefixes[i].bits >= bits {
		i++
	}
	n.prefixes = slices.Insert(n.prefixes, i, prefixRoute{key: prefixKey(prefix, bits), bits: bits, link: via})
}

// SetDefaultRoute installs the fallback route.
func (n *Node) SetDefaultRoute(via *Link) {
	n.routeCache = [routeCacheSize]exactRoute{}
	n.defaultRoute = via
}

// lookupLink resolves dst: the exact table, then the first matching
// prefix, then the default route. nil means no route.
func (n *Node) lookupLink(dst Addr) *Link {
	if i, ok := n.searchExact(dst); ok {
		return n.exact[i].link
	}
	for _, p := range n.prefixes {
		if prefixKey(dst, p.bits) == p.key {
			return p.link
		}
	}
	return n.defaultRoute
}

// lookupRoute is the cached lookup used by route().
func (n *Node) lookupRoute(dst Addr) *Link {
	e := &n.routeCache[dst&(routeCacheSize-1)]
	if e.dst == dst && e.link != nil {
		return e.link
	}
	l := n.lookupLink(dst)
	if l != nil {
		*e = exactRoute{dst: dst, link: l}
	}
	return l
}

// handlerEntry is one bound handler; Node.handlers is sorted by key, which
// packs (proto, port) so the probe is a single integer binary search.
type handlerEntry struct {
	key uint32
	h   Handler
}

func handlerKey(proto Proto, port uint16) uint32 {
	return uint32(proto)<<16 | uint32(port)
}

// searchHandler is searchExact for n.handlers.
func (n *Node) searchHandler(key uint32) (int, bool) {
	lo, hi := 0, len(n.handlers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.handlers[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.handlers) && n.handlers[lo].key == key
}

// Bind registers a handler for packets addressed to this node with the
// given protocol and destination port. Port 0 binds all ports of the
// protocol (used by ICMP).
func (n *Node) Bind(proto Proto, port uint16, h Handler) {
	key := handlerKey(proto, port)
	i, dup := n.searchHandler(key)
	if dup {
		panic(fmt.Sprintf("netem: %s: duplicate bind %v port %d", n.name, proto, port))
	}
	n.handlers = slices.Insert(n.handlers, i, handlerEntry{key: key, h: h})
}

// Unbind removes a handler installed with Bind; a port that is not bound
// is left alone.
func (n *Node) Unbind(proto Proto, port uint16) {
	if i, ok := n.searchHandler(handlerKey(proto, port)); ok {
		n.handlers = slices.Delete(n.handlers, i, i+1)
	}
}

// lookupHandler resolves a delivery: the exact (proto, port), then the
// protocol's port-0 wildcard.
func (n *Node) lookupHandler(proto Proto, port uint16) Handler {
	if i, ok := n.searchHandler(handlerKey(proto, port)); ok {
		return n.handlers[i].h
	}
	if i, ok := n.searchHandler(handlerKey(proto, 0)); ok {
		return n.handlers[i].h
	}
	return nil
}
