package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"starlinkperf/internal/measure"
)

func TestParseTransport(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Transport
	}{
		{"", TransportPaper},
		{"paper", TransportPaper},
		{"modern", TransportModern},
	} {
		got, err := ParseTransport(tc.in)
		if err != nil {
			t.Errorf("ParseTransport(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTransport(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"warp-drive", "bbr,pacing", " modern", "Modern"} {
		if _, err := ParseTransport(in); err == nil {
			t.Errorf("ParseTransport(%q) accepted", in)
		}
	}
}

// ParseTransport never panics, and what it accepts parses to the same
// stack once surrounding whitespace is trimmed, and again from the name
// the stack prints as.
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
			t.Errorf("ParseTransport(%q) = %v, but the trimmed %q parses to %v, %v", s, p, strings.TrimSpace(s), again, err)
		}
		if again, err := ParseTransport(p.String()); err != nil || again != p {
			t.Errorf("ParseTransport(%q) = %v, but its name %q parses to %v, %v", s, p, p.String(), again, err)
		}
	})
}

// TestTransportModernWorkerInvariance pins the modern profile's
// determinism: BBR + pacing + 0-RTT must stay a pure function of
// (config, seed), bit-identical across worker counts and stable per
// seed. It matters most under -race (ci.sh), with TestBBRDeterminism.
func TestTransportModernWorkerInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Transport = TransportModern
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
	cfg.Transport = TransportModern
	modern := RunMessagesCampaignParallel(cfg, 1, 20*time.Second, false, Options{Workers: 1})
	if reflect.DeepEqual(paper.RTTsMs, modern.RTTsMs) {
		t.Error("modern profile produced identical output to paper — profile not applied")
	}
}

// TestTransportModernResumesWithZeroRTT: the modern stack reaches 0-RTT
// through the testbed. Of two message sessions from the Starlink PC to
// the H3 server, dialed with the testbed's QUIC configuration, the second
// resumes from the ticket the first left in tb.Sessions; under paper it
// runs the full handshake again.
func TestTransportModernResumesWithZeroRTT(t *testing.T) {
	for _, tr := range []Transport{TransportPaper, TransportModern} {
		cfg := DefaultConfig()
		cfg.Transport = tr
		tb := NewTestbed(cfg)
		var resumed []bool
		var dial func()
		dial = func() {
			measure.MessageSession(tb.PCStarlink, tb.H3Server, false, 5*time.Second, tb.QUICConf, func(s measure.Session) {
				resumed = append(resumed, s.Client.Stats.ZeroRTTResumed)
				if len(resumed) < 2 {
					tb.Sched.After(time.Second, dial)
				}
			})
		}
		dial()
		tb.Sched.RunFor(time.Minute)
		if want := []bool{false, tr == TransportModern}; !reflect.DeepEqual(resumed, want) {
			t.Errorf("%v: sessions resumed with 0-RTT %v, want %v", tr, resumed, want)
		}
	}
}
