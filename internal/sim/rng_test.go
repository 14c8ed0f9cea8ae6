package sim

import "testing"

func TestDeriveDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range []string{"latency", "speedtest", "web"} {
		for i := 0; i < 16; i++ {
			s := DeriveSeed(42, name, i)
			if prev, dup := seen[s]; dup {
				t.Errorf("DeriveSeed(42,%q,%d) collides with %s", name, i, prev)
			}
			seen[s] = name
			if s != DeriveSeed(42, name, i) {
				t.Errorf("DeriveSeed(42,%q,%d) is not deterministic", name, i)
			}
		}
	}
	// Different bases decorrelate.
	if DeriveSeed(1, "x", 0) == DeriveSeed(2, "x", 0) {
		t.Error("different base seeds derived the same shard seed")
	}
	// A derived seed must not alias Stream's seed for the same name.
	if DeriveSeed(9, "x", 0) == NewRNG(9).Stream("x").seed {
		t.Error("DeriveSeed(base, name, 0) aliases Stream(name)")
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
			if r.seed != want.seed {
				t.Fatalf("seed %d: base seed %v, want %v", seed, r.seed, want.seed)
			}
		}
	}
	r := NewRNG(1)
	if avg := testing.AllocsPerRun(100, func() { r.Reseed(7); r.Float64() }); avg != 0 {
		t.Errorf("Reseed: %v allocs, want 0", avg)
	}
}

// TestSplitMix64Pinned: the published splitmix64 step. The fleet's activity
// coin and the access link's per-epoch draws both rest on these words.
func TestSplitMix64Pinned(t *testing.T) {
	for _, c := range []struct{ x, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0xdeadbeef, 0x4adfb90f68c9eb9b},
	} {
		if got := SplitMix64(c.x); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.x, got, c.want)
		}
	}
}
