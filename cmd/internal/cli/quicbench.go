package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"starlinkperf/internal/core"
	"starlinkperf/internal/stats"
	"starlinkperf/internal/trace"
)

// quicbench runs the paper's QUIC workloads from PC-Starlink.
func quicbench(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("quicbench", stderr, withWorkers|withTransport)
	mode := fs.String("mode", "h3", "workload: h3 | messages")
	dir := fs.String("dir", "down", "direction: down | up")
	n := fs.Int("n", 5, "transfers or sessions")
	sizeMB := fs.Int("size", 100, "transfer size in MB (h3 mode)")
	msgDur := fs.Duration("dur", 2*time.Minute, "session length (messages mode)")
	pcapPath := fs.String("pcap", "", "write the receiver capture of the first transfer to this pcap file (h3 mode)")
	cfg, opts, err := fs.parse(args)
	switch {
	case err != nil:
		return err
	case *mode != "h3" && *mode != "messages":
		return fmt.Errorf("unknown mode %q", *mode)
	case *dir != "down" && *dir != "up":
		return fmt.Errorf("unknown dir %q", *dir)
	case *n < 1 || *sizeMB < 1:
		return fmt.Errorf("n and size must be >= 1")
	case *msgDur < time.Second:
		return fmt.Errorf("dur must be at least 1s, got %v", *msgDur)
	case *pcapPath != "" && *mode != "h3":
		return fmt.Errorf("pcap is written in h3 mode only")
	}
	download := *dir == "down"
	var out strings.Builder

	if *mode == "h3" {
		camp := core.RunH3CampaignParallel(cfg, *n, *sizeMB<<20, download, 15*time.Second, opts)
		r := stats.Summarize(camp.RTTSamplesMs())
		g := stats.Summarize(camp.Goodputs())
		fmt.Fprintf(&out, "H3 %s: %d x %dMB transfers\n", *dir, len(camp.Records), *sizeMB)
		stats.Fprintf(&out, "  goodput: med=%.1f p25=%.1f p75=%.1f Mbit/s\n", g.P50, g.P25, g.P75)
		stats.Fprintf(&out, "  RTT: n=%d p50=%.0f p95=%.0f p99=%.0f ms\n", r.N, r.P50, r.P95, r.P99)
		fmt.Fprintf(&out, "  loss: %.2f%% in %d events\n", 100*camp.LossRatio(), len(camp.BurstLengths()))
		core.LossDurations(&out, "loss events", camp.EventDurations())
		if *pcapPath != "" && len(camp.Records) > 0 {
			var pcap bytes.Buffer
			w := trace.NewPcapWriter(&pcap)
			if err := w.WriteCapture(camp.Records[0].Result.ReceiverCapture); err != nil {
				return err
			}
			if err := os.WriteFile(*pcapPath, pcap.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(&out, "  wrote %d capture records to %s\n", w.Packets, *pcapPath)
		}
	} else {
		camp := core.RunMessagesCampaignParallel(cfg, *n, *msgDur, download, opts)
		r := stats.Summarize(camp.RTTsMs)
		bursts := camp.BurstLengths()
		fmt.Fprintf(&out, "messages %s: %d sessions of %s at 25 msg/s (5-25kB)\n", *dir, *n, *msgDur)
		stats.Fprintf(&out, "  RTT: n=%d p50=%.0f p95=%.0f p99=%.0f ms\n", r.N, r.P50, r.P95, r.P99)
		fmt.Fprintf(&out, "  loss: %.2f%% (bursts: %v...)\n", 100*camp.LossRatio(), bursts[:min(12, len(bursts))])
	}
	_, err = io.WriteString(stdout, out.String())
	return err
}
