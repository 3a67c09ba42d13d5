package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// alignedBlock returns an 8-byte-aligned zeroed block of n bytes.
func alignedBlock(n uint64) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), int(n))
}

func TestWallLogBytesLayout(t *testing.T) {
	if s := unsafe.Sizeof(Hist{}); s%8 != 0 {
		t.Fatalf("Hist size %d not word-multiple", s)
	}
	want := uint64(64) + 8*eventWords*8 + uint64(numHists)*uint64(unsafe.Sizeof(Hist{}))
	if got := LogBytes(8); got != want {
		t.Fatalf("LogBytes(8) = %d, want %d", got, want)
	}
}

func TestWallRingCapRounding(t *testing.T) {
	cases := map[int]uint64{
		-1: 1 << 16, 0: 1 << 16,
		1: 2, 2: 2, 3: 4, 1000: 1024, 1 << 12: 1 << 12,
	}
	for in, want := range cases {
		if got := RingCap(in); got != want {
			t.Errorf("RingCap(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWallLogAtRejectsBadArgs(t *testing.T) {
	block := alignedBlock(LogBytes(8))
	if _, err := NewLogAt(block, 0, 7, nil); err == nil {
		t.Fatal("non-power-of-two cap accepted")
	}
	if _, err := NewLogAt(block[:100], 0, 8, nil); err == nil {
		t.Fatal("short block accepted")
	}
	mis := alignedBlock(LogBytes(8) + 8)
	if _, err := NewLogAt(mis[1:], 0, 8, nil); err == nil {
		t.Fatal("misaligned block accepted")
	}
}

func TestWallLogRoundTrip(t *testing.T) {
	var tick uint64
	now := func() uint64 { tick += 10; return tick }
	l, err := NewLogAt(alignedBlock(LogBytes(16)), 0, 16, now)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(KStealOK, 100, 50, 128, 7, 3)
	l.EmitFlags(KStealFault, 200, 0, 0, 0, 1, FFailed)
	l.Instant(KProbeBlind, 9, 0, 2)
	ex := l.export()
	evs := ex.Events
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	e := evs[0]
	if e.Kind != KStealOK || e.Time != 100 || e.Dur != 50 || e.Arg != 128 || e.Task != 7 || e.Peer != 3 {
		t.Fatalf("event 0 round-trip: %+v", e)
	}
	if !evs[1].Failed() || evs[1].Peer != 1 {
		t.Fatalf("flags/peer lost: %+v", evs[1])
	}
	if evs[2].Kind != KProbeBlind || evs[2].Time != 10 || evs[2].Arg != 9 {
		t.Fatalf("instant: %+v", evs[2])
	}
	if ex.Total != 3 || ex.Dropped != 0 {
		t.Fatalf("total %d dropped %d", ex.Total, ex.Dropped)
	}
	if l.Clock() == 0 {
		t.Fatal("Clock returned 0 with a live clock")
	}
}

// TestWallLogWrapKeepsNewest overflows a 4-slot ring through explicit
// stamps on a harvest-style view and requires the newest four, oldest
// first, with the overflow counted.
func TestWallLogWrapKeepsNewest(t *testing.T) {
	l, err := NewLogAt(alignedBlock(LogBytes(4)), 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		l.Emit(KProbeBlind, i, 0, i, 0, int(i))
	}
	ex := l.export()
	if ex.Total != 10 || ex.Dropped != 6 {
		t.Fatalf("total %d dropped %d, want 10/6", ex.Total, ex.Dropped)
	}
	if len(ex.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(ex.Events))
	}
	for i, e := range ex.Events {
		if want := uint64(6 + i); e.Arg != want || e.Time != want {
			t.Fatalf("event %d = %+v, want arg %d (newest kept, oldest first)", i, e, want)
		}
	}
}

// TestWallLogSharedAttach simulates the dist pattern: two views over
// the same block (as two processes would have), one writing, the other
// harvesting — including a "dead writer" slot that was reserved but
// never committed.
func TestWallLogSharedAttach(t *testing.T) {
	block := alignedBlock(LogBytes(8))
	wr, err := NewLogAt(block, 3, 8, func() uint64 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	wr.Instant(KHeartbeat, 0, 0, -1)
	wr.Span(KStealOK, 40, 256, 0, 1, HStealLatency)

	// Simulate a writer killed between FAA and the word stores: bump
	// total without writing the slot.
	*wr.total++

	rd, err := NewLogAt(block, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewRecorderOver([]*Log{rd}).Export()
	got := ex.Logs[0]
	if got.Rank != 3 {
		t.Fatalf("rank %d", got.Rank)
	}
	if got.Total != 3 {
		t.Fatalf("total %d", got.Total)
	}
	if len(got.Events) != 2 {
		t.Fatalf("got %d events, want 2 (torn slot skipped)", len(got.Events))
	}
	if got.Events[0].Kind != KHeartbeat || got.Events[1].Kind != KStealOK {
		t.Fatalf("kinds %v %v", got.Events[0].Kind, got.Events[1].Kind)
	}
	if len(ex.Hists) != 1 || ex.Hists[0].Hist.Count != 1 || ex.Hists[0].Hist.Max != 2 {
		t.Fatalf("steal hist not shared: %+v", ex.Hists)
	}
}

// TestWallLogConcurrentMPSC hammers one shared ring and eight private
// rings from eight goroutines, then reads at quiescence — the -race
// stress for the ring's memory-ordering argument.
func TestWallLogConcurrentMPSC(t *testing.T) {
	const writers = 8
	const perWriter = 4096
	rec := NewWallRecorder(writers, 1024)
	shared, err := NewLogAt(alignedBlock(LogBytes(1024)), 99, 1024, rec.Worker(0).now)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := rec.Worker(w)
			for i := 0; i < perWriter; i++ {
				own.Instant(KProbeBlind, uint64(i), 0, w)
				own.Span(KStealOK, own.Clock(), uint64(i), 0, (w+1)%writers, HStealLatency)
				shared.Emit(KHeartbeat, uint64(w)<<32|uint64(i), 0, 0, 0, w)
			}
		}(w)
	}
	wg.Wait()

	ex := rec.Export()
	for w, l := range ex.Logs {
		if l.Total != 2*perWriter {
			t.Fatalf("worker %d total %d, want %d", w, l.Total, 2*perWriter)
		}
		for _, e := range l.Events {
			if e.Kind != KProbeBlind && e.Kind != KStealOK {
				t.Fatalf("worker %d: unexpected kind %v", w, e.Kind)
			}
		}
		if n := rec.Worker(w).hists[HStealLatency].Count; n != perWriter {
			t.Fatalf("worker %d steal hist count %d", w, n)
		}
	}
	if len(ex.Hists) != 1 || ex.Hists[0].Hist.Count != writers*perWriter {
		t.Fatalf("merged steal hist %+v, want %d samples", ex.Hists, writers*perWriter)
	}
	sh := shared.export()
	if sh.Total != writers*perWriter {
		t.Fatalf("shared total %d, want %d", sh.Total, writers*perWriter)
	}
	// With racing multi-lap writers a slot's final content may be from
	// an older lap (the decoder skips it), so the retained window can
	// be slightly short of cap — but never longer, and never corrupt.
	if len(sh.Events) > 1024 || len(sh.Events) < 1024-2*writers {
		t.Fatalf("shared ring kept %d, want ~cap 1024", len(sh.Events))
	}
	for _, e := range sh.Events {
		if e.Kind != KHeartbeat {
			t.Fatalf("shared ring corrupt kind %v", e.Kind)
		}
		if w := int(e.Time >> 32); w != int(e.Peer) {
			t.Fatalf("shared ring torn slot: writer tag %d vs peer %d", w, e.Peer)
		}
	}
	if sh.Dropped != writers*perWriter-1024 {
		t.Fatalf("shared dropped %d", sh.Dropped)
	}
}

// TestWallNilSafety calls every wall-clock recording helper on a nil
// *Log: each must be a no-op.
func TestWallNilSafety(t *testing.T) {
	var l *Log
	l.SetJob(7)
	l.Observe(HSoftFAA, 1)
	l.Span(KStealOK, 0, 0, 0, 0, HStealLatency)
	if l.Clock() != 0 {
		t.Fatal("nil Log has a clock")
	}
}

// TestWallExportChrome drives wall-clock events through the one
// exporter and checks the trace is valid Chrome JSON with the wall
// clock domain and per-worker drop accounting.
func TestWallExportChrome(t *testing.T) {
	rec := NewWallRecorder(2, 16)
	w0, w1 := rec.Worker(0), rec.Worker(1)
	w0.Instant(KProbeHint, 0, 0, 1)
	w0.Span(KStealOK, w0.Clock(), 512, 0, 1, HStealLatency)
	w0.Span(KXfer, w0.Clock(), 512, 0, 1, HCopyNS)
	w0.Span(KPark, w0.Clock(), 0, 0, -1, HParkDur)
	w0.Emit(KNap, w0.Clock(), 1, 0, 0, -1)
	w0.Span(KSuspend, w0.Clock(), 256, 0, -1, HCopyNS)
	for i := 0; i < 40; i++ { // overflow w1's 16-slot ring
		w1.Instant(KHeartbeat, 0, 0, -1)
	}
	ex := rec.Export()
	if ex.Clock != ClockWallNS {
		t.Fatalf("clock %q", ex.Clock)
	}
	if ex.Dropped() == 0 {
		t.Fatal("expected drops on w1")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ex, nil); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		ClockDomain string                   `json:"clockDomain"`
		OtherData   map[string]uint64        `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if trace.ClockDomain != ClockWallNS {
		t.Fatalf("clockDomain %q", trace.ClockDomain)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"steal", "probe-hint", "xfer", "park", "nap", "suspend", "heartbeat"} {
		if !names[want] {
			t.Errorf("trace missing %q event", want)
		}
	}
	if _, ok := trace.OtherData["dropped_events_w1"]; !ok {
		t.Error("otherData missing per-worker drop count")
	}
	if _, ok := trace.OtherData["steal_latency_p50"]; !ok {
		t.Error("otherData missing steal latency percentiles")
	}

	var sum strings.Builder
	WriteSummary(&sum, ex, nil)
	for _, want := range []string{"wall ns", "dropped per worker", "steal latency", "park duration"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

func TestWallLogJobTagging(t *testing.T) {
	l, err := NewLogAt(alignedBlock(LogBytes(8)), 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(KTask, 1, 1, 0, 1, -1)
	l.SetJob(42)
	l.Emit(KTask, 2, 1, 0, 2, -1)
	l.Emit(KStealOK, 3, 1, 0, 0, 1)
	l.SetJob(0)
	l.Emit(KTask, 4, 1, 0, 3, -1)
	evs := l.export().Events
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	want := []uint64{0, 42, 42, 0}
	for i, e := range evs {
		if e.Job != want[i] {
			t.Fatalf("event %d job = %d, want %d", i, e.Job, want[i])
		}
	}
}
