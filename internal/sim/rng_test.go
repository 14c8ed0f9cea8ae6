package sim

import "testing"

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	r := NewRNG(42)
	seen := map[uint64]string{}
	for _, name := range []string{"latency", "speedtest", "web"} {
		for i := 0; i < 16; i++ {
			s := r.Derive(name, i)
			if prev, dup := seen[s]; dup {
				t.Errorf("Derive(%q,%d) collides with %s", name, i, prev)
			}
			seen[s] = name
			if s != DeriveSeed(42, name, i) {
				t.Errorf("Derive(%q,%d) != DeriveSeed with same base", name, i)
			}
		}
	}
	// Derivation never consumes generator state: draws in between change
	// nothing.
	before := r.Derive("x", 3)
	r.Float64()
	r.Uint64()
	if got := r.Derive("x", 3); got != before {
		t.Error("Derive is sensitive to prior consumption")
	}
	// Different bases decorrelate.
	if NewRNG(1).Derive("x", 0) == NewRNG(2).Derive("x", 0) {
		t.Error("different base seeds derived the same shard seed")
	}
	// Derive must not alias Stream's seed for the same name.
	r2 := NewRNG(9)
	streamSeed := r2.Stream("x").seed
	if r2.Derive("x", 0) == streamSeed {
		t.Error("Derive(name, 0) aliases Stream(name)")
	}
}

func TestDeriveSeedShardsReproduceSequences(t *testing.T) {
	// Two RNGs built from the same derived seed emit the same sequence;
	// sibling shards emit different ones.
	a := NewRNG(DeriveSeed(5, "shard", 2))
	b := NewRNG(DeriveSeed(5, "shard", 2))
	c := NewRNG(DeriveSeed(5, "shard", 3))
	same, diff := true, false
	for i := 0; i < 64; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			same = false
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !same {
		t.Error("identical derived seeds produced different sequences")
	}
	if !diff {
		t.Error("sibling shards produced identical sequences")
	}
}

// TestReseedMatchesNewRNG: a reseeded generator — whatever it drew before,
// root or derived stream — continues exactly as a fresh NewRNG(seed), on
// every sampler, and reseeding allocates nothing.
func TestReseedMatchesNewRNG(t *testing.T) {
	for _, r := range []*RNG{NewRNG(99), NewRNG(99).Stream("other")} {
		r.NormFloat64()
		for _, seed := range []uint64{0, 1, 42, 1 << 63} {
			r.Reseed(seed)
			want := NewRNG(seed)
			for i := 0; i < 16; i++ {
				if g, w := r.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
				}
				if g, w := r.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %v, want %v", seed, i, g, w)
				}
			}
			if g, w := r.Derive("x", 3), want.Derive("x", 3); g != w {
				t.Fatalf("seed %d: Derive %v, want %v", seed, g, w)
			}
		}
	}
	r := NewRNG(1)
	if avg := testing.AllocsPerRun(100, func() { r.Reseed(7); r.Float64() }); avg != 0 {
		t.Errorf("Reseed: %v allocs, want 0", avg)
	}
}
