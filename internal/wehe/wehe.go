// Package wehe implements a traffic-discrimination detector after Wehe
// (Li et al., SIGCOMM 2019): it replays recorded application traces
// twice — once looking like the original service (classifiable by the
// operator) and once with randomized bytes/ports (unclassifiable) — and
// compares the achieved throughput distributions with a KS test. A
// significant difference indicates the operator treats the service
// specially.
//
// The paper ran the full Wehe suite (22 services, 10 runs) on Starlink
// and found no differentiation.
package wehe

import (
	"fmt"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/tcpsim"
)

// Burst is one element of a service trace: after Offset from the start,
// the server sends Bytes downstream.
type Burst struct {
	Offset time.Duration
	Bytes  int
}

// ServiceTrace is a recorded application session to replay.
type ServiceTrace struct {
	Name string
	// Port is the well-known service port the original replay uses (the
	// classifier's hook; randomized replays use an ephemeral port).
	Port   uint16
	Bursts []Burst
}

// Duration returns the trace length.
func (t *ServiceTrace) Duration() time.Duration {
	if len(t.Bursts) == 0 {
		return 0
	}
	return t.Bursts[len(t.Bursts)-1].Offset
}

// TotalBytes returns the downstream volume.
func (t *ServiceTrace) TotalBytes() int {
	n := 0
	for _, b := range t.Bursts {
		n += b.Bytes
	}
	return n
}

// DefaultServices generates the 22 service traces the detector replays,
// shaped like their real counterparts: video streaming (rate-limited
// chunked downloads), video calls (steady medium rate), and bulk-ish
// app traffic.
func DefaultServices(rng *sim.RNG) []ServiceTrace {
	names := []struct {
		name string
		port uint16
		kind int // 0 = streaming, 1 = call, 2 = bulk
		mbps float64
	}{
		{"netflix", 7001, 0, 15}, {"youtube", 7002, 0, 12}, {"amazon-video", 7003, 0, 10},
		{"disney+", 7004, 0, 25}, {"twitch", 7005, 0, 8}, {"hulu", 7006, 0, 10},
		{"vimeo", 7007, 0, 8}, {"dailymotion", 7008, 0, 6},
		{"zoom", 7101, 1, 3}, {"skype", 7102, 1, 2.5}, {"webex", 7103, 1, 3},
		{"meet", 7104, 1, 3.2}, {"teams", 7105, 1, 3}, {"facetime", 7106, 1, 2.5},
		{"whatsapp-call", 7107, 1, 1.5}, {"spotify", 7201, 0, 2},
		{"appletv", 7202, 0, 18}, {"molotov", 7203, 0, 7}, {"mycanal", 7204, 0, 9},
		{"facebook-video", 7205, 0, 8}, {"instagram-video", 7206, 0, 6}, {"tiktok", 7207, 0, 6},
	}
	traces := make([]ServiceTrace, 0, len(names))
	for _, n := range names {
		tr := ServiceTrace{Name: n.name, Port: n.port}
		dur := 20 * time.Second
		switch n.kind {
		case 0: // streaming: 2s chunks at the target rate
			chunk := int(n.mbps * 1e6 / 8 * 2)
			for off := time.Duration(0); off < dur; off += 2 * time.Second {
				jitter := time.Duration(rng.IntN(200)) * time.Millisecond
				tr.Bursts = append(tr.Bursts, Burst{Offset: off + jitter, Bytes: chunk})
			}
		case 1: // call: 50ms frames
			frame := int(n.mbps * 1e6 / 8 / 20)
			for off := time.Duration(0); off < dur; off += 50 * time.Millisecond {
				size := frame/2 + rng.IntN(frame)
				tr.Bursts = append(tr.Bursts, Burst{Offset: off, Bytes: size})
			}
		}
		traces = append(traces, tr)
	}
	return traces
}

// replayPort is where the replay server listens for randomized runs.
const replayPort = 9999

// Server installs the replay responder on a node: the client's request
// message names the trace; the server then plays the downstream bursts.
// Burst offsets must be non-decreasing; a trace whose offsets decrease
// panics here.
func Server(node *netem.Node, traces []ServiceTrace, cfg tcpsim.Config) {
	byName := make(map[string]*ServiceTrace, len(traces))
	ports := make(map[uint16]bool)
	for i := range traces {
		tr := &traces[i]
		for j := 1; j < len(tr.Bursts); j++ {
			if tr.Bursts[j].Offset < tr.Bursts[j-1].Offset {
				panic(fmt.Sprintf("wehe: trace %s: burst %d at %v, before burst %d at %v", tr.Name, j, tr.Bursts[j].Offset, j-1, tr.Bursts[j-1].Offset))
			}
		}
		byName[tr.Name] = tr
		ports[tr.Port] = true
	}
	handler := func(c *tcpsim.Conn) {
		sched := node.Scheduler()
		c.OnMsg = func(m any) {
			name, ok := m.(string)
			if !ok {
				return
			}
			if tr := byName[name]; tr != nil && len(tr.Bursts) > 0 {
				p := &player{c: c, sched: sched, start: sched.Now(), bursts: tr.Bursts}
				sched.AtFunc(p.start.Add(p.bursts[0].Offset), playBurst, p)
			}
		}
	}
	for port := range ports {
		tcpsim.Listen(node, port, cfg, handler)
	}
	tcpsim.Listen(node, replayPort, cfg, handler)
}

// player plays one replay's bursts down the server's connection with one
// timer: each burst arms the next, at its offset from the trace start.
type player struct {
	c      *tcpsim.Conn
	sched  *sim.Scheduler
	start  sim.Time
	bursts []Burst // from the one due now
}

func playBurst(arg any) {
	p := arg.(*player)
	if p.c.State() == tcpsim.StateClosed {
		return
	}
	p.c.Write(p.bursts[0].Bytes)
	if p.bursts = p.bursts[1:]; len(p.bursts) > 0 {
		p.sched.AtFunc(p.start.Add(p.bursts[0].Offset), playBurst, p)
	}
}

// RunResult is one replay's throughput series.
type RunResult struct {
	// Samples are per-interval throughputs in Mbit/s.
	Samples []float64
	// Bytes is the total received.
	Bytes int
}

// sampleInterval is the throughput bucketing Wehe uses.
const sampleInterval = 250 * time.Millisecond

// Replay runs one trace against the server and reports the downstream
// throughput series. original selects the classifiable port.
func Replay(node *netem.Node, server netem.Addr, tr *ServiceTrace, original bool, cfg tcpsim.Config, done func(RunResult)) {
	sched := node.Scheduler()
	port := tr.Port
	if !original {
		port = replayPort
	}
	c := tcpsim.Dial(node, server, port, cfg)
	var res RunResult
	bucket := 0
	c.OnEstablished = func() { c.WriteMsg(200, tr.Name) }
	c.OnData = func(n int, fin bool) {
		res.Bytes += n
		bucket += n
	}
	var tick func()
	tick = func() {
		if c.State() == tcpsim.StateClosed {
			return
		}
		if c.Ready() {
			res.Samples = append(res.Samples, float64(bucket)*8/sampleInterval.Seconds()/1e6)
			bucket = 0
		}
		sched.After(sampleInterval, tick)
	}
	sched.After(sampleInterval, tick)
	sched.After(tr.Duration()+8*time.Second, func() {
		c.Abort()
		done(res)
	})
}

// Detection is the verdict for one service.
type Detection struct {
	Service string
	// OriginalMbps and RandomMbps are mean throughputs across runs.
	OriginalMbps, RandomMbps float64
	// KSStat and PValue come from the two-sample KS test over all
	// throughput samples.
	KSStat, PValue float64
	// Differentiated applies Wehe's criterion: significant KS result
	// and a rate gap above 10%.
	Differentiated bool
}

// String implements fmt.Stringer.
func (d Detection) String() string {
	verdict := "no differentiation"
	if d.Differentiated {
		verdict = "DIFFERENTIATED"
	}
	return fmt.Sprintf("%-16s orig=%6.2f Mbit/s rand=%6.2f Mbit/s KS=%.3f p=%.4f -> %s",
		d.Service, d.OriginalMbps, d.RandomMbps, d.KSStat, d.PValue, verdict)
}

// Detect replays a service repeats times in each mode and issues the
// verdict.
func Detect(node *netem.Node, server netem.Addr, tr *ServiceTrace, repeats int, cfg tcpsim.Config, done func(Detection)) {
	var orig, rand []float64
	var origBytes, randBytes int
	runs := 0
	var next func()
	finish := func() {
		d := Detection{Service: tr.Name}
		wall := (tr.Duration() + 8*time.Second).Seconds() * float64(repeats)
		d.OriginalMbps = float64(origBytes) * 8 / wall / 1e6
		d.RandomMbps = float64(randBytes) * 8 / wall / 1e6
		d.KSStat, d.PValue = stats.KolmogorovSmirnov(orig, rand)
		gap := 0.0
		if d.RandomMbps > 0 {
			gap = (d.RandomMbps - d.OriginalMbps) / d.RandomMbps
			if gap < 0 {
				gap = -gap
			}
		}
		d.Differentiated = d.PValue < 0.05 && gap > 0.10
		done(d)
	}
	next = func() {
		if runs >= repeats {
			finish()
			return
		}
		runs++
		Replay(node, server, tr, true, cfg, func(o RunResult) {
			orig = append(orig, o.Samples...)
			origBytes += o.Bytes
			Replay(node, server, tr, false, cfg, func(r RunResult) {
				rand = append(rand, r.Samples...)
				randBytes += r.Bytes
				next()
			})
		})
	}
	next()
}
