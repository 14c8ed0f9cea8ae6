package quic

import "starlinkperf/internal/netem"

type sessionKey struct {
	addr netem.Addr
	port uint16
}

// SessionCache holds session tickets for 0-RTT resumption, keyed by
// server (address, port). The measurement campaigns build a fresh
// Endpoint per transfer (like the paper's tools fork a fresh client per
// test), so the cache lives above the endpoints — the testbed owns one
// and the modern transport threads it through Config.Sessions. A cache
// is bound to one scheduler's connections; it is not safe for concurrent
// use across shards (each shard testbed owns its own).
type SessionCache struct {
	m map[sessionKey]struct{}
}

// NewSessionCache returns an empty session-ticket cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{m: make(map[sessionKey]struct{})}
}

// Has reports whether a ticket for the server is cached.
func (sc *SessionCache) Has(addr netem.Addr, port uint16) bool {
	if sc == nil {
		return false
	}
	_, ok := sc.m[sessionKey{addr: addr, port: port}]
	return ok
}

// put records a ticket after a completed handshake.
func (sc *SessionCache) put(addr netem.Addr, port uint16) {
	sc.m[sessionKey{addr: addr, port: port}] = struct{}{}
}
