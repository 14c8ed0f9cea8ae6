package quic_test

import (
	"testing"
	"time"

	"starlinkperf/internal/measure"
	"starlinkperf/internal/netem"
	"starlinkperf/internal/quic"
	"starlinkperf/internal/sim"
)

// Delivered stream data aliases the sender's payload memory, and the
// filler payload of every stream is one shared zero page: a consumer that
// wrote into what OnData hands it would corrupt every stream that aliases
// the page. After bulk transfers and message sessions in both directions,
// over a lossy path so that data also waits out of order, the page still
// holds only zeros.
func TestWorkloadsLeaveZeroPageZero(t *testing.T) {
	s := sim.NewScheduler(3)
	nw := netem.New(s)
	client := nw.NewNode("client", netem.MustParseAddr("10.0.0.1"))
	server := nw.NewNode("server", netem.MustParseAddr("10.0.0.2"))
	link := netem.LinkConfig{
		RateBps: 50e6,
		Delay:   netem.ConstantDelay(15 * time.Millisecond),
		Loss:    &netem.BernoulliLoss{P: 0.02, Rng: s.RNG().Stream("loss")},
	}
	up, down := nw.Connect(client, server, link)
	client.AddRoute(server.Addr(), up)
	server.AddRoute(client.Addr(), down)
	srv := measure.NewH3Server(server, quic.Config{})

	var lost uint64
	for _, download := range []bool{true, false} {
		var res measure.TransferResult
		measure.H3Transfer(client, srv, download, 4<<20, quic.Config{}, func(r measure.TransferResult) { res = r })
		s.RunFor(time.Minute)
		if !res.Completed {
			t.Fatalf("download=%v: transfer incomplete", download)
		}
		lost += res.Client.Stats.PacketsLost + res.Server.Stats.PacketsLost
		var sess measure.Session
		measure.MessageSession(client, srv, download, 5*time.Second, quic.Config{}, func(r measure.Session) { sess = r })
		s.RunFor(time.Minute)
		if sess.Client == nil || sess.Client.Stats.BytesReceived == 0 || sess.Server.Stats.BytesReceived == 0 {
			t.Fatalf("download=%v: message session carried nothing", download)
		}
	}
	if lost == 0 {
		t.Fatal("no packet was lost: no data waited out of order")
	}
	if !quic.ZeroPageIsZero() {
		t.Fatal("the shared zero page was written to")
	}
}
