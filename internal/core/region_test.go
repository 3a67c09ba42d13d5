package core

import (
	"bytes"
	"testing"
)

// TestRegionCopyOutInRoundTrip swaps a stack out of a simulated
// worker's uni-address region into a pinned RDMA-heap buffer and back
// (Figs. 7–8), through the same code suspend and resume run.
func TestRegionCopyOutInRoundTrip(t *testing.T) {
	m, err := NewMachine(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	w := m.workers[0]
	base, err := w.region.AllocBelow(200)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	if _, err := w.space.Write(base, payload); err != nil {
		t.Fatal(err)
	}
	buf := w.heap.MustAlloc(200)
	w.copyOut(base, 200, buf)
	if !w.region.Empty() {
		t.Fatal("region not empty after copy-out")
	}
	// Scribble over the old location, then restore.
	if _, err := w.space.Write(base, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	w.copyIn(base, 200, buf)
	if w.region.Used() != 200 {
		t.Fatalf("copy-in occupies %d bytes, want 200", w.region.Used())
	}
	got := make([]byte, 200)
	if _, err := w.space.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("copy-in did not restore the exact bytes")
	}
}
