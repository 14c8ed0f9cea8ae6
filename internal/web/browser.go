package web

import (
	"sort"
	"time"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/sim"
	"starlinkperf/internal/tcpsim"
)

// Request is the application message a browser sends per object.
type Request struct {
	Size int
	Proc time.Duration
}

// RequestBytes is the modeled HTTP request size.
const RequestBytes = 430

// httpsPort is the TCP port web servers listen on and browsers connect to:
// every site is served over HTTPS.
const httpsPort = 443

// Server hosts web content on a node: it answers each Request message
// with the requested number of bytes after the request's processing time.
func Server(node *netem.Node, cfg tcpsim.Config) {
	tcpsim.Listen(node, httpsPort, cfg, func(c *tcpsim.Conn) {
		sched := node.Scheduler()
		c.OnMsg = func(m any) {
			req, ok := m.(Request)
			if !ok {
				return
			}
			sched.After(req.Proc, func() {
				if c.State() != tcpsim.StateClosed {
					c.Write(req.Size)
				}
			})
		}
	})
}

// Resolver maps a site's domain index to the address of its server.
type Resolver func(domain int) netem.Addr

// Browser drives page visits from a node. The model follows what
// BrowserTime measures: network fetches over per-domain connections
// (HTTP/2-style multiplexing), script/stylesheet discovery chains, and a
// serial main thread whose parse/execute time is part of onLoad.
type Browser struct {
	Node *netem.Node
	// Resolve maps domains to servers.
	Resolve Resolver
	// TCP is the connection configuration (TLS rounds count here: the
	// 2022 web mix is mostly TLS 1.2/1.3; DefaultConfig uses 1.2).
	TCP tcpsim.Config
	// Deadline aborts visits that run too long (BrowserTime's timeout).
	Deadline time.Duration
}

// visitConn tracks one connection of a visit.
type visitConn struct {
	conn      *tcpsim.Conn
	queue     []fetchItem         // awaiting request (pre-establishment)
	responses sim.Ring[fetchItem] // requested, awaiting response bytes
	delivered int                 // bytes received toward the front response
}

// fetchItem is one resource in flight; idx == -1 is the HTML document.
type fetchItem struct {
	idx int
	obj Object
}

// Visit loads the site and reports QoE metrics to done.
func (b *Browser) Visit(site *Site, done func(VisitResult)) {
	sched := b.Node.Scheduler()
	start := sched.Now()
	deadline := b.Deadline
	if deadline <= 0 {
		deadline = 60 * time.Second
	}

	res := VisitResult{Site: site}
	conns := make(map[int]*visitConn)
	finished := false
	var deadlineTimer sim.TimerHandle
	finish := func(failed bool) {
		if finished {
			return
		}
		finished = true
		res.Failed = failed
		deadlineTimer.Stop()
		// Abort in domain order: Abort() schedules RST events, and map
		// iteration order would make their sequence — and thus every
		// event after them — vary between otherwise identical runs.
		domains := make([]int, 0, len(conns))
		for d := range conns {
			domains = append(domains, d)
		}
		sort.Ints(domains)
		for _, d := range domains {
			if vc := conns[d]; vc.conn.State() != tcpsim.StateClosed {
				vc.conn.Abort()
			}
		}
		done(res)
	}
	deadlineTimer = sched.After(deadline, func() { finish(true) })

	// SpeedIndex accounting over above-fold bytes.
	totalAF := float64(site.HTMLSize)
	for _, o := range site.Objects {
		if o.AboveFold {
			totalAF += float64(o.Size)
		}
	}
	var afWeighted float64
	var lastAF time.Duration
	remaining := len(site.Objects) + 1 // + HTML

	// The browser main thread: parse/execute costs serialize.
	var cpuFree sim.Time

	// Dependency bookkeeping.
	dependents := make(map[int][]int)
	for j, o := range site.Objects {
		if o.DependsOn >= 0 && o.DependsOn < j {
			dependents[o.DependsOn] = append(dependents[o.DependsOn], j)
		}
	}

	var openConn func(domain int) *visitConn
	var request func(item fetchItem)
	var objectDone func(item fetchItem)

	// objectDone runs after network completion: the main thread spends
	// the CPU cost, then the resource counts as complete and unlocks its
	// dependents.
	objectDone = func(item fetchItem) {
		cpu := 15 * time.Millisecond // HTML parse floor
		if item.idx >= 0 {
			cpu = item.obj.CPU
		}
		startCPU := sched.Now()
		if cpuFree > startCPU {
			startCPU = cpuFree
		}
		doneAt := startCPU.Add(cpu)
		cpuFree = doneAt
		sched.At(doneAt, func() {
			if finished {
				return
			}
			t := sched.Now().Sub(start)
			if item.idx < 0 || item.obj.AboveFold {
				size := site.HTMLSize
				if item.idx >= 0 {
					size = item.obj.Size
				}
				afWeighted += t.Seconds() * float64(size)
				if t > lastAF {
					lastAF = t
				}
			}
			remaining--
			if item.idx < 0 {
				// HTML parsed: discover every root resource.
				for j, obj := range site.Objects {
					if obj.DependsOn < 0 || obj.DependsOn >= j {
						request(fetchItem{idx: j, obj: obj})
					}
				}
			}
			for _, j := range dependents[item.idx] {
				request(fetchItem{idx: j, obj: site.Objects[j]})
			}
			if remaining == 0 {
				res.OnLoad = t
				// SpeedIndex integrates visual incompleteness: partial
				// progress as above-fold bytes arrive (first term) and
				// the final paint of the viewport, which waits for the
				// last above-fold resource (second term, weighted like
				// the layout-settling that real pages exhibit).
				progress := afWeighted / totalAF
				res.SpeedIndex = time.Duration((progress + 2*lastAF.Seconds()) / 3 * float64(time.Second))
				finish(false)
			}
		})
	}

	openConn = func(domain int) *visitConn {
		if vc, ok := conns[domain]; ok {
			return vc
		}
		vc := &visitConn{}
		vc.conn = tcpsim.Dial(b.Node, b.Resolve(domain), httpsPort, b.TCP)
		conns[domain] = vc
		res.Connections++
		vc.conn.OnEstablished = func() {
			res.ConnSetupTimes = append(res.ConnSetupTimes, vc.conn.SetupTime())
			for _, it := range vc.queue {
				vc.conn.WriteMsg(RequestBytes, Request{Size: it.obj.Size, Proc: it.obj.Proc})
				vc.responses.Push(it)
			}
			vc.queue = nil
		}
		vc.conn.OnData = func(n int, fin bool) {
			vc.delivered += n
			for vc.responses.Len() > 0 && vc.delivered >= vc.responses.Front().obj.Size {
				it := vc.responses.Pop()
				vc.delivered -= it.obj.Size
				objectDone(it)
			}
		}
		return vc
	}

	request = func(item fetchItem) {
		vc := openConn(item.obj.Domain)
		if vc.conn.Ready() {
			vc.conn.WriteMsg(RequestBytes, Request{Size: item.obj.Size, Proc: item.obj.Proc})
			vc.responses.Push(item)
		} else {
			vc.queue = append(vc.queue, item)
		}
	}

	// Kick off with the HTML document from the origin.
	request(fetchItem{
		idx: -1,
		obj: Object{Domain: 0, Size: site.HTMLSize, AboveFold: true, Proc: 20 * time.Millisecond},
	})
}
