package measure

import (
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

// Speedtest ports: one service pushes (download test), the other sinks
// (upload test).
const (
	SpeedtestDownPort = 8080
	SpeedtestUpPort   = 8081
)

// SpeedtestServer hosts the two speedtest services on a node.
type SpeedtestServer struct {
	Node *netem.Node
}

// NewSpeedtestServer installs the download and upload services. The
// download service pushes bytes until the client aborts; the upload
// service sinks whatever arrives.
func NewSpeedtestServer(node *netem.Node, cfg tcpsim.Config) *SpeedtestServer {
	// Push service: on connect, keep ~4 MB of send backlog queued.
	tcpsim.Listen(node, SpeedtestDownPort, cfg, func(c *tcpsim.Conn) {
		sched := node.Scheduler()
		var top func()
		top = func() {
			if c.State() == tcpsim.StateClosed {
				return
			}
			c.Write(4 << 20)
			sched.After(100*time.Millisecond, top)
		}
		c.OnEstablished = func() { top() }
	})
	// Sink service: nothing to do; the conn counts delivery itself.
	tcpsim.Listen(node, SpeedtestUpPort, cfg, nil)
	return &SpeedtestServer{Node: node}
}

// SpeedtestConfig parameterizes a client test run, following the Ookla
// CLI's shape: several parallel TCP connections, a warmup that is
// excluded from the measurement, and a fixed measuring window.
type SpeedtestConfig struct {
	// Connections is the number of parallel TCP connections (Ookla uses
	// at least 4).
	Connections int
	// Warmup is excluded from the rate computation (ramp-up).
	Warmup time.Duration
	// Window is the measured interval after warmup.
	Window time.Duration
	// TCP is the client TCP configuration.
	TCP tcpsim.Config
}

// DefaultSpeedtestConfig mirrors the Ookla CLI defaults.
func DefaultSpeedtestConfig() SpeedtestConfig {
	cfg := tcpsim.DefaultConfig()
	cfg.TLSRounds = 1
	return SpeedtestConfig{
		Connections: 4,
		Warmup:      2 * time.Second,
		Window:      10 * time.Second,
		TCP:         cfg,
	}
}

// SpeedtestResult is one test outcome.
type SpeedtestResult struct {
	At           sim.Time
	Server       netem.Addr
	DownloadMbps float64
	UploadMbps   float64
	PingRTT      time.Duration
}

// selectionRounds bounds how many rounds of server-selection pings
// RunSpeedtest sends before it gives up. A round in which every ping is
// lost — the client sat in an outage, such as a handover at t = 0 — is
// followed by another as its last ping times out.
const selectionRounds = 3

// RunSpeedtest selects the nearest server by ping, then measures download
// and upload back to back, delivering the result to done. If no server
// answered in selectionRounds rounds, the result is the zero value at the
// instant it gave up.
func RunSpeedtest(p *Prober, servers []netem.Addr, cfg SpeedtestConfig, done func(SpeedtestResult)) {
	if len(servers) == 0 {
		done(SpeedtestResult{})
		return
	}
	// Probe all candidates, pick the lowest RTT (the Ookla selection).
	type cand struct {
		addr netem.Addr
		rtt  time.Duration
		ok   bool
	}
	var round func(n int)
	round = func(n int) {
		cands := make([]cand, len(servers))
		remaining := len(servers)
		for i, srv := range servers {
			p.Echo(srv, func(rtt time.Duration, ok bool) {
				cands[i] = cand{addr: srv, rtt: rtt, ok: ok}
				if remaining--; remaining > 0 {
					return
				}
				best := -1
				for j, c := range cands {
					if c.ok && (best < 0 || c.rtt < cands[best].rtt) {
						best = j
					}
				}
				switch {
				case best >= 0:
					runAgainst(p, cands[best].addr, cands[best].rtt, cfg, done)
				case n+1 < selectionRounds:
					round(n + 1)
				default:
					done(SpeedtestResult{At: p.sched.Now()})
				}
			})
		}
	}
	round(0)
}

func runAgainst(p *Prober, server netem.Addr, rtt time.Duration, cfg SpeedtestConfig, done func(SpeedtestResult)) {
	res := SpeedtestResult{At: p.sched.Now(), Server: server, PingRTT: rtt}
	measureDirection(p.node, server, SpeedtestDownPort, cfg, false, func(mbps float64) {
		res.DownloadMbps = mbps
		measureDirection(p.node, server, SpeedtestUpPort, cfg, true, func(mbps float64) {
			res.UploadMbps = mbps
			done(res)
		})
	})
}

// measureDirection opens cfg.Connections parallel connections and counts
// delivered application bytes in the measuring window. For uploads the
// client pushes and counts acknowledged bytes at the sender.
func measureDirection(node *netem.Node, server netem.Addr, port uint16, cfg SpeedtestConfig, upload bool, done func(mbps float64)) {
	sched := node.Scheduler()
	n := cfg.Connections
	if n <= 0 {
		n = 4
	}
	conns := make([]*tcpsim.Conn, 0, n)
	var measuring bool
	var bytes uint64

	for i := 0; i < n; i++ {
		c := tcpsim.Dial(node, server, port, cfg.TCP)
		conns = append(conns, c)
		if upload {
			c.OnEstablished = func() {
				var top func()
				top = func() {
					if c.State() == tcpsim.StateClosed {
						return
					}
					c.Write(4 << 20)
					sched.After(100*time.Millisecond, top)
				}
				top()
			}
			// Count bytes the server acknowledged: sample snd.una growth.
		} else {
			c.OnData = func(nn int, fin bool) {
				if measuring {
					bytes += uint64(nn)
				}
			}
		}
	}

	var unaAtStart []uint64
	sched.After(cfg.Warmup, func() {
		measuring = true
		if upload {
			unaAtStart = make([]uint64, len(conns))
			for i, c := range conns {
				unaAtStart[i] = c.DebugUna()
			}
		}
		sched.After(cfg.Window, func() {
			measuring = false
			if upload {
				for i, c := range conns {
					bytes += c.DebugUna() - unaAtStart[i]
				}
			}
			for _, c := range conns {
				c.Abort()
			}
			done(float64(bytes) * 8 / cfg.Window.Seconds() / 1e6)
		})
	})
}
