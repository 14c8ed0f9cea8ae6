package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"starlinkperf/internal/sim"
)

// Kind identifies the type of a trace event. The numeric values are part
// of the binary export format; append new kinds, never renumber or reuse.
type Kind uint8

const (
	// KindDrop: a packet was dropped. A = DropReason code, B = packet bytes.
	KindDrop Kind = iota
	// Kinds 1 and 2 are retired: per-packet link enqueue and dequeue
	// records, which filled the ring and explained nothing the queue-depth
	// histogram does not. Older traces still decode with their names.
	_
	_
	// KindHandover: the terminal's serving satellite changed. A = old sat index, B = new sat index.
	KindHandover
	// KindOutage: the access link entered an outage window. A = duration ns, B = 1 for long outage, 0 for handover micro-outage.
	KindOutage
	// KindRTO: a TCP retransmission timeout fired. A = consecutive RTO count, B = 0.
	KindRTO
	// KindPTO: a QUIC probe timeout fired. A = consecutive PTO count, B = 0.
	KindPTO
	// KindSplice: a PEP proxy spliced a TCP connection. A = 0, B = 0.
	KindSplice
	// KindProbeLost: an ICMP echo probe timed out. A = sequence number, B = 0.
	KindProbeLost
	// KindFleetEpoch: a fleet region finished a reassignment epoch. A =
	// terminals in outage this epoch, B = handovers this epoch.
	KindFleetEpoch

	numKinds = int(KindFleetEpoch) + 1
)

var kindNames = [numKinds]string{
	"drop", "enqueue", "dequeue", "handover", "outage",
	"rto", "pto", "splice", "probe_lost", "fleet_epoch",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Subj identifies the subject of an event (a link, a connection, a
// terminal) as an index into the tracer's interned subject-name table.
type Subj uint32

// Event is one trace record. Sixteen bytes of payload beyond the
// timestamp: a kind, a subject, and two kind-specific operands — enough
// for every instrumented site without per-kind structs or allocation.
type Event struct {
	At   sim.Time
	Kind Kind
	Subj Subj
	A, B int64
}

// Tracer is a fixed-capacity ring of Events. Emit never allocates; once
// the ring is full the oldest events are overwritten, bounding memory on
// arbitrarily long campaigns, and counted per kind, so a cause's records
// plus its overwritten ones still equal its counter. Within one tracer
// events are naturally time-ordered (single-threaded scheduler, monotone
// clock), so export is a rotation, not a sort.
type Tracer struct {
	ring  []Event
	next  int              // next write slot
	wrap  bool             // ring has wrapped at least once
	over  [numKinds]uint64 // records overwritten, by kind
	names []string
	subjs map[string]Subj
}

// NewTracer returns a tracer holding at most cap events (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		ring:  make([]Event, capacity),
		subjs: make(map[string]Subj),
	}
}

// Subject interns a subject name and returns its id. Call at setup time;
// ids are stable for the life of the tracer. Returns 0 on a nil tracer.
func (t *Tracer) Subject(name string) Subj {
	if t == nil {
		return 0
	}
	if id, ok := t.subjs[name]; ok {
		return id
	}
	id := Subj(len(t.names))
	t.names = append(t.names, name)
	t.subjs[name] = id
	return id
}

// Emit records one event. Safe on a nil receiver; never allocates.
func (t *Tracer) Emit(at sim.Time, kind Kind, subj Subj, a, b int64) {
	if t == nil {
		return
	}
	if t.wrap {
		t.over[t.ring[t.next].Kind]++
	}
	t.ring[t.next] = Event{At: at, Kind: kind, Subj: subj, A: a, B: b}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrap = true
	}
}

// Len returns the number of retained events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.wrap {
		return len(t.ring)
	}
	return t.next
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrap {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SubjectName resolves a subject id to its interned name.
func (t *Tracer) SubjectName(s Subj) string {
	if t == nil || int(s) >= len(t.names) {
		return fmt.Sprintf("subj(%d)", uint32(s))
	}
	return t.names[s]
}

// appendJSONL writes the retained events as JSON Lines, one canonical
// fixed-field-order object per event, prefixing each subject with src
// (the shard source name) so merged exports stay unambiguous.
func (t *Tracer) appendJSONL(b *bytes.Buffer, src string) {
	if t == nil {
		return
	}
	for _, e := range t.Events() {
		fmt.Fprintf(b, `{"src":%q,"at":%d,"kind":%q,"subj":%q,"a":%d,"b":%d}`+"\n",
			src, int64(e.At), e.Kind.String(), t.SubjectName(e.Subj), e.A, e.B)
	}
}

// Binary trace format "OTR1": a per-source header (magic, source name,
// subject table) followed by fixed-width little-endian 29-byte records.
const binMagic = "OTR1"

// appendBinary writes the per-source binary section.
func (t *Tracer) appendBinary(b *bytes.Buffer, src string) {
	if t == nil {
		return
	}
	b.WriteString(binMagic)
	writeLenString(b, src)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(t.names)))
	b.Write(u32[:])
	for _, n := range t.names {
		writeLenString(b, n)
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(t.Len()))
	b.Write(u32[:])
	var rec [29]byte
	for _, e := range t.Events() {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(int64(e.At)))
		rec[8] = byte(e.Kind)
		binary.LittleEndian.PutUint32(rec[9:13], uint32(e.Subj))
		binary.LittleEndian.PutUint64(rec[13:21], uint64(e.A))
		binary.LittleEndian.PutUint64(rec[21:29], uint64(e.B))
		b.Write(rec[:])
	}
}

func writeLenString(b *bytes.Buffer, s string) {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(s)))
	b.Write(u32[:])
	b.WriteString(s)
}
