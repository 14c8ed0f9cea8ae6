package netem

import "sort"

// Flat FIB: the per-hop route lookup. The map and slices written by
// AddRoute, AddPrefixRoute and SetDefaultRoute stay the source of truth;
// the flat tables below are rebuilt from them lazily after any change, and
// a 4-entry direct-mapped last-destination cache in front of the lookup is
// cleared on every rebuild. The decision rule — exact beats prefix,
// longest mask wins, earliest-inserted wins ties, default last — is the
// one a map probe plus a linear longest-prefix scan makes; fib_test.go
// keeps that scan as the oracle and compares on randomized tables.

// fibExact is one exact-destination route in the sorted fast table.
type fibExact struct {
	dst  Addr
	link *Link
}

// fibPrefixEntry is one prefix route. key is the prefix's significant
// bits (prefix >> (32-bits)); for mask lengths of 32 or more — which mean
// exact equality — it is the full address.
type fibPrefixEntry struct {
	key  Addr
	bits int32
	seq  int32 // insertion order, the tie-break among equal prefixes
	link *Link
}

// fibGroup is a contiguous run of fibPrefix entries sharing one mask
// length; groups are ordered longest mask first.
type fibGroup struct {
	bits       int
	start, end int32
}

// routeCacheSize is the per-node last-destination cache (direct-mapped
// on the low address bits). It must stay a power of two.
const routeCacheSize = 4

type routeCacheEntry struct {
	dst  Addr
	link *Link
}

func prefixKey(a Addr, bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a >> (32 - bits)
}

// rebuildFIB regenerates the flat tables from the route maps and clears
// the destination cache.
func (n *Node) rebuildFIB() {
	n.fibDirty = false
	n.routeCache = [routeCacheSize]routeCacheEntry{}

	n.fibExact = n.fibExact[:0]
	for dst, l := range n.routes {
		n.fibExact = append(n.fibExact, fibExact{dst: dst, link: l})
	}
	sort.Slice(n.fibExact, func(i, j int) bool { return n.fibExact[i].dst < n.fibExact[j].dst })

	n.fibPrefix = n.fibPrefix[:0]
	for i, pr := range n.prefixRoutes {
		if pr.bits < 0 {
			// A negative mask length can never win a longest-prefix match
			// (the best starts at -1 and needs a strict improvement), so
			// such entries are dead.
			continue
		}
		n.fibPrefix = append(n.fibPrefix, fibPrefixEntry{
			key:  prefixKey(pr.prefix, pr.bits),
			bits: int32(pr.bits),
			seq:  int32(i),
			link: pr.link,
		})
	}
	sort.Slice(n.fibPrefix, func(i, j int) bool {
		a, b := n.fibPrefix[i], n.fibPrefix[j]
		if a.bits != b.bits {
			return a.bits > b.bits
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})

	n.fibGroups = n.fibGroups[:0]
	for i := 0; i < len(n.fibPrefix); {
		j := i
		for j < len(n.fibPrefix) && n.fibPrefix[j].bits == n.fibPrefix[i].bits {
			j++
		}
		n.fibGroups = append(n.fibGroups, fibGroup{
			bits:  int(n.fibPrefix[i].bits),
			start: int32(i),
			end:   int32(j),
		})
		i = j
	}
}

// lookupLink resolves dst against the flat tables: exact table first,
// then prefix groups longest mask first (leftmost equal key = earliest
// inserted), then the default route. nil means no route.
func (n *Node) lookupLink(dst Addr) *Link {
	lo, hi := 0, len(n.fibExact)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.fibExact[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.fibExact) && n.fibExact[lo].dst == dst {
		return n.fibExact[lo].link
	}
	for gi := range n.fibGroups {
		g := &n.fibGroups[gi]
		key := prefixKey(dst, g.bits)
		lo, hi := int(g.start), int(g.end)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if n.fibPrefix[mid].key < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < int(g.end) && n.fibPrefix[lo].key == key {
			return n.fibPrefix[lo].link
		}
	}
	return n.defaultRoute
}

// lookupRoute is the cached lookup used by route().
func (n *Node) lookupRoute(dst Addr) *Link {
	if n.fibDirty {
		n.rebuildFIB()
	}
	e := &n.routeCache[dst&(routeCacheSize-1)]
	if e.dst == dst && e.link != nil {
		return e.link
	}
	l := n.lookupLink(dst)
	if l != nil {
		*e = routeCacheEntry{dst: dst, link: l}
	}
	return l
}

// handlerEntry is one bound handler in the sorted fast table; key packs
// (proto, port) so the probe is a single integer binary search.
type handlerEntry struct {
	key uint32
	h   Handler
}

func handlerKey(proto Proto, port uint16) uint32 {
	return uint32(proto)<<16 | uint32(port)
}

// rebuildHandlers regenerates the sorted handler table from the map.
func (n *Node) rebuildHandlers() {
	n.hDirty = false
	n.hTable = n.hTable[:0]
	for pp, h := range n.handlers {
		n.hTable = append(n.hTable, handlerEntry{key: handlerKey(pp.proto, pp.port), h: h})
	}
	sort.Slice(n.hTable, func(i, j int) bool { return n.hTable[i].key < n.hTable[j].key })
}

func (n *Node) searchHandler(key uint32) Handler {
	lo, hi := 0, len(n.hTable)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.hTable[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.hTable) && n.hTable[lo].key == key {
		return n.hTable[lo].h
	}
	return nil
}

// lookupHandler resolves a delivery: the exact (proto, port), then the
// protocol's port-0 wildcard.
func (n *Node) lookupHandler(proto Proto, port uint16) Handler {
	if n.hDirty {
		n.rebuildHandlers()
	}
	if h := n.searchHandler(handlerKey(proto, port)); h != nil {
		return h
	}
	if port != 0 {
		return n.searchHandler(handlerKey(proto, 0))
	}
	return nil
}
