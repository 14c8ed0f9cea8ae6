package cli

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"starlinkperf/internal/netem"
	"starlinkperf/internal/obs"
)

// cause is one kind of trace record that stands for a counted event; a
// drop is told apart by its reason (the record's A operand).
type cause struct {
	kind   obs.Kind
	reason int64
}

// causeCounters pairs every counted cause with the counter its layer bumps
// where it emits the record.
var causeCounters = []struct {
	cause   cause
	counter string
}{
	{cause{obs.KindDrop, int64(netem.DropQueueFull)}, "net.link.drops.queue"},
	{cause{obs.KindDrop, int64(netem.DropMedium)}, "net.link.drops.medium"},
	{cause{obs.KindDrop, int64(netem.DropOutage)}, "net.link.drops.outage"},
	{cause{kind: obs.KindRTO}, "tcp.rto"},
	{cause{kind: obs.KindPTO}, "quic.pto"},
	{cause{kind: obs.KindProbeLost}, "probe.echo_lost"},
	{cause{kind: obs.KindSplice}, "pep.splits"},
	{cause{kind: obs.KindHandover}, "leo.handovers"},
	{cause{kind: obs.KindOutage}, "leo.outages"},
}

// checkTraceAgreesWithMetrics holds a traced starlink-bench run to the
// rule that metrics and trace agree: in every source, a cause's records
// plus those its full ring overwrote (named on stderr) equal its counter.
// Rings count what they overwrite by kind, not by drop reason, so each
// reason's drop records are at most its counter and all drops together
// agree. At the quick size no ring overwrites anything.
func checkTraceAgreesWithMetrics(t *testing.T, bin, metrics []byte, stderr string) {
	t.Helper()
	records, err := causeRecords(bin)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc struct {
		Sources map[string]struct{ Counters map[string]uint64 }
	}
	if err := json.Unmarshal(metrics, &doc); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	over, err := overwrittenRecords(stderr)
	if err != nil {
		t.Fatal(err)
	}
	for src := range records {
		if _, ok := doc.Sources[src]; !ok {
			t.Errorf("trace source %s has no metrics", src)
		}
	}
	for src, reg := range doc.Sources {
		var drops, dropsCounted uint64
		for _, cc := range causeCounters {
			n, want := records[src][cc.cause], reg.Counters[cc.counter]
			if cc.cause.kind == obs.KindDrop {
				drops, dropsCounted = drops+n, dropsCounted+want
				if n > want {
					t.Errorf("%s: %d %s drop records, %s = %d", src, n, netem.DropReason(cc.cause.reason), cc.counter, want)
				}
				continue
			}
			if n+over[src][cc.cause.kind] != want {
				t.Errorf("%s: %d %s records + %d overwritten, %s = %d", src, n, cc.cause.kind, over[src][cc.cause.kind], cc.counter, want)
			}
		}
		if drops+over[src][obs.KindDrop] != dropsCounted {
			t.Errorf("%s: %d drop records + %d overwritten, link drop counters sum to %d", src, drops, over[src][obs.KindDrop], dropsCounted)
		}
	}
	if len(over) > 0 {
		t.Errorf("the quick trace should keep every record, but rings overwrote %v", over)
	}
}

// causeRecords counts an OTR1 trace's records per source and cause.
func causeRecords(b []byte) (map[string]map[cause]uint64, error) {
	out := map[string]map[cause]uint64{}
	u32 := func() (int, error) {
		if len(b) < 4 {
			return 0, fmt.Errorf("truncated")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return n, nil
	}
	str := func() (string, error) {
		n, err := u32()
		if err != nil || len(b) < n {
			return "", fmt.Errorf("truncated string")
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	for len(b) > 0 {
		if !bytes.HasPrefix(b, []byte("OTR1")) {
			return nil, fmt.Errorf("section without the OTR1 magic")
		}
		b = b[4:]
		src, err := str()
		if err != nil {
			return nil, err
		}
		subjects, err := u32()
		for i := 0; err == nil && i < subjects; i++ {
			_, err = str()
		}
		if err != nil {
			return nil, err
		}
		n, err := u32()
		if err != nil || len(b) < 29*n {
			return nil, fmt.Errorf("%s: truncated records", src)
		}
		counts := map[cause]uint64{}
		for ; n > 0; n-- {
			c := cause{kind: obs.Kind(b[8])}
			if c.kind == obs.KindDrop {
				c.reason = int64(binary.LittleEndian.Uint64(b[13:21]))
			}
			counts[c]++
			b = b[29:]
		}
		out[src] = counts
	}
	return out, nil
}

// overwrittenRecords parses starlink-bench's stderr line naming the
// records full rings overwrote ("src kind=n kind=n; src ..."), per source
// and kind; no line means none.
func overwrittenRecords(stderr string) (map[string]map[obs.Kind]uint64, error) {
	const prefix = "trace: incomplete, full rings overwrote "
	kinds := map[string]obs.Kind{}
	for k := obs.KindDrop; k <= obs.KindFleetEpoch; k++ {
		kinds[k.String()] = k
	}
	out := map[string]map[obs.Kind]uint64{}
	for _, line := range strings.Split(stderr, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		for _, part := range strings.Split(rest, "; ") {
			fields := strings.Fields(part)
			if len(fields) < 2 {
				return nil, fmt.Errorf("overwritten line part %q names no kind", part)
			}
			out[fields[0]] = map[obs.Kind]uint64{}
			for _, f := range fields[1:] {
				name, count, _ := strings.Cut(f, "=")
				n, err := strconv.ParseUint(count, 10, 64)
				k, known := kinds[name]
				if err != nil || !known {
					return nil, fmt.Errorf("overwritten line part %q: bad count %q", part, f)
				}
				out[fields[0]][k] = n
			}
		}
	}
	return out, nil
}
