package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTransport(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TransportProfile
	}{
		{"", PaperTransport()},
		{"paper", PaperTransport()},
		{"modern", ModernTransport()},
		{"bbr,pacing", TransportProfile{Name: "bbr,pacing", BBR: true, Pacing: true}},
		{"minrtt", TransportProfile{Name: "minrtt", RTTMinWindow: 10 * time.Second}},
		{"zerortt, migration", TransportProfile{Name: "zerortt, migration", ZeroRTT: true, Migration: true}},
	} {
		got, err := ParseTransport(tc.in)
		if err != nil {
			t.Errorf("ParseTransport(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTransport(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseTransport("warp-drive"); err == nil {
		t.Error("unknown toggle accepted")
	}
	if !PaperTransport().IsPaper() || ModernTransport().IsPaper() {
		t.Error("IsPaper misclassifies the named profiles")
	}
}

// ParseTransport never panics, and what it accepts parses to the same
// profile once surrounding whitespace is trimmed, and again from the name
// it gave the profile.
func FuzzParseTransport(f *testing.F) {
	for _, s := range []string{"", "paper", "modern", " modern ", "bbr,pacing", "zerortt, migration", "minrtt,idledecay", "bbr,", ",", "warp-drive", "\tbbr\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseTransport(s)
		if err != nil {
			return
		}
		if again, err := ParseTransport(strings.TrimSpace(s)); err != nil || again != p {
			t.Errorf("ParseTransport(%q) = %+v, but the trimmed %q parses to %+v, %v", s, p, strings.TrimSpace(s), again, err)
		}
		if again, err := ParseTransport(p.Name); err != nil || again != p {
			t.Errorf("ParseTransport(%q) = %+v, but its name %q parses to %+v, %v", s, p, p.Name, again, err)
		}
	})
}

// TestTransportPaperBitIdentical is the profile-plumbing identity gate:
// explicitly selecting the paper profile must produce byte-for-byte the
// same campaign output as the default zero value, across worker counts.
// (cmd/starlink-bench's TestRunVariantMatrix byte-diffs the whole report
// with -transport paper on its flipped row.)
func TestTransportPaperBitIdentical(t *testing.T) {
	base := DefaultConfig()
	withProfile := DefaultConfig()
	withProfile.Transport = PaperTransport()
	for _, workers := range []int{1, raceWorkers} {
		a := RunMessagesCampaignParallel(base, 2, 20*time.Second, false, Options{Workers: workers})
		b := RunMessagesCampaignParallel(withProfile, 2, 20*time.Second, false, Options{Workers: workers})
		if len(a.RTTsMs) == 0 {
			t.Fatal("no RTT samples")
		}
		if !reflect.DeepEqual(a.RTTsMs, b.RTTsMs) || a.LossRatio() != b.LossRatio() {
			t.Errorf("workers=%d: paper profile diverges from default output", workers)
		}
	}
}

// TestTransportModernWorkerInvariance pins the modern profile's
// determinism: BBR + pacing + 0-RTT must stay a pure function of
// (config, seed), bit-identical across worker counts and stable per
// seed. It matters most under -race (ci.sh), with TestBBRDeterminism.
func TestTransportModernWorkerInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Transport = ModernTransport()
		run := func(workers int) *MsgCampaign {
			return RunMessagesCampaignParallel(cfg, 2, 20*time.Second, false, Options{Workers: workers})
		}
		seq := run(1)
		par := run(raceWorkers)
		if len(seq.RTTsMs) == 0 {
			t.Fatalf("seed %d: no RTT samples under modern profile", seed)
		}
		if !reflect.DeepEqual(seq.RTTsMs, par.RTTsMs) {
			t.Errorf("seed %d: modern-profile RTT series differ between 1 and %d workers", seed, raceWorkers)
		}
		if seq.LossRatio() != par.LossRatio() {
			t.Errorf("seed %d: modern-profile loss ratios differ across worker counts", seed)
		}
		again := run(1)
		if !reflect.DeepEqual(seq.RTTsMs, again.RTTsMs) {
			t.Errorf("seed %d: two identical modern-profile runs diverged", seed)
		}
	}
}

// TestTransportModernChangesOutput guards against the profile silently
// not being plumbed through: the modern stack must actually alter the
// message-latency series relative to paper (pacing alone reshapes upload
// queueing).
func TestTransportModernChangesOutput(t *testing.T) {
	paper := RunMessagesCampaignParallel(DefaultConfig(), 1, 20*time.Second, false, Options{Workers: 1})
	cfg := DefaultConfig()
	cfg.Transport = ModernTransport()
	modern := RunMessagesCampaignParallel(cfg, 1, 20*time.Second, false, Options{Workers: 1})
	if reflect.DeepEqual(paper.RTTsMs, modern.RTTsMs) {
		t.Error("modern profile produced identical output to paper — profile not applied")
	}
}
