package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source with support for derived named
// streams. Two simulation components that each derive their own stream
// ("leo.jitter", "netem.loss", ...) remain statistically independent and —
// critically — insensitive to each other's consumption order, which keeps
// experiments reproducible as the codebase evolves.
type RNG struct {
	seed uint64
	pcg  *rand.PCG
	src  *rand.Rand
}

// rootSalt derives a root RNG's second PCG word from its seed.
const rootSalt = 0x9e3779b97f4a7c15

func newRNG(seed, seed2 uint64) *RNG {
	pcg := rand.NewPCG(seed, seed2)
	return &RNG{seed: seed, pcg: pcg, src: rand.New(pcg)}
}

// NewRNG returns the root RNG for seed.
func NewRNG(seed uint64) *RNG { return newRNG(seed, seed^rootSalt) }

// Reseed restarts r in place as the root RNG for seed: from here on it
// yields exactly the stream NewRNG(seed) would, without allocating. A loop
// that needs one short stream per item (fleet placement) keeps one
// generator and reseeds it per item.
func (r *RNG) Reseed(seed uint64) {
	r.seed = seed
	r.pcg.Seed(seed, seed^rootSalt)
}

// Stream derives an independent deterministic sub-stream identified by
// name. Deriving the same name from the same root always yields the same
// sequence.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	sub := r.seed ^ h.Sum64()
	return newRNG(sub, sub^0xdeadbeefcafef00d)
}

// DeriveSeed returns a deterministic seed for the i-th shard of a named
// family ("latency", "speedtest", ...) under a base seed. Unlike Stream it
// hands back a raw seed rather than an RNG: the caller typically feeds it
// to a whole new simulation (e.g. a per-shard Testbed) so that shards are
// statistically independent yet fully reproducible. Identical inputs
// always produce identical seeds; distinct names or indices decorrelate.
func DeriveSeed(base uint64, name string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h.Write(buf[:])
	// The extra odd constant separates DeriveSeed(base, "x", 0) from
	// Stream("x"), which uses the bare name hash.
	return base ^ h.Sum64() ^ 0x6a09e667f3bcc909
}

// SplitMix64 is one step of the splitmix64 generator: x advanced by the
// golden-ratio increment, then finalized. It is an allocation-free hash of
// one word for per-item draws on hot paths (a fleet terminal's activity
// coin per epoch, the access link's per-epoch decisions), where
// DeriveSeed's name hash would allocate.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Float64 returns a uniform sample in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit sample.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform sample in [0,n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// LogNormal returns a log-normal sample parameterized by the mean and
// standard deviation of the underlying normal (mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Exponential returns an exponential sample with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.src.ExpFloat64()
}
