package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/rt"
)

// The Env accessor contract: an Env is a byte view of its frame, and
// every slot accessor bounds-checks against that view with the messages
// task authors have always seen.

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("%s: panic %q, want %q", what, got, want)
		}
	}()
	f()
}

// The job tag took the header's reserved word: the header stays 32
// bytes, the tag is read with the rest of what a task entry needs, and
// neither a resume-point stamp nor a write to the last local slot
// disturbs it.
func TestFrameHeaderCarriesJob(t *testing.T) {
	if core.FrameHeaderBytes != 32 {
		t.Fatalf("frame header is %d bytes, want 32", core.FrameHeaderBytes)
	}
	frame := bytes.Repeat([]byte{0xff}, int(core.FrameBytes(16)))
	rec := core.MakeHandle(2, 0x80)
	core.EncodeFrameHeader(frame, 9, 16, 0xabcd1234, rec)
	core.SetFrameResume(frame, 5)
	e := core.NewEnv(nil, 0x1000, frame, 0)
	e.SetU64(1, ^uint64(0))
	fid, resume, job, self := core.FrameEntry(e.Header())
	if fid != 9 || resume != 5 || job != 0xabcd1234 || self != rec || core.FrameJob(e.Header()) != job {
		t.Fatalf("entry reads fid %d resume %d job %#x record %#x, want 9, 5, 0xabcd1234, %#x", fid, resume, job, self, rec)
	}
	if e.Self() != rec || e.FrameSize() != core.FrameBytes(16) {
		t.Fatalf("Env reads record %#x size %d, want %#x and %d", e.Self(), e.FrameSize(), rec, core.FrameBytes(16))
	}
}

func TestEnvAccessorBounds(t *testing.T) {
	// rt/dist allocate an Env per level of spawn depth per job; past 64
	// bytes that shows in dist_uts' alloc_bytes_per_task (~0.5 B/task).
	if n := unsafe.Sizeof(core.Env{}); n > 64 {
		t.Errorf("Env is %d bytes, want <= 64", n)
	}
	const locals = 4 * 8
	size := core.FrameBytes(locals)
	frame := make([]byte, size)
	core.EncodeFrameHeader(frame, 1, locals, 0, core.MakeHandle(3, 0x40))
	e := core.NewEnv(nil, 0x1000, frame, 0)

	e.SetU64(3, 0xfeed)
	if e.U64(3) != 0xfeed || e.Self() != core.MakeHandle(3, 0x40) {
		t.Fatalf("slot 3 = %#x, self = %v", e.U64(3), e.Self())
	}
	if b := e.Bytes(8, 16); len(b) != 16 || cap(b) != 16 || &b[0] != &frame[core.FrameHeaderBytes+8] {
		t.Fatalf("Bytes(8,16): len %d cap %d, or not a view of the frame", len(b), cap(b))
	}

	slotMsg := func(i int, size uint64) string {
		return fmt.Sprintf("core: slot %d outside frame of %d bytes", i, size)
	}
	for _, i := range []int{-1, locals / 8, math.MinInt, math.MaxInt} {
		mustPanic(t, fmt.Sprintf("U64(%d)", i), slotMsg(i, size), func() { e.U64(i) })
		mustPanic(t, fmt.Sprintf("SetU64(%d)", i), slotMsg(i, size), func() { e.SetU64(i, 1) })
	}
	// A slot write must never reach the header, whatever the index.
	if e.Self() != core.MakeHandle(3, 0x40) {
		t.Fatal("out-of-range slot write reached the frame header")
	}

	bare := make([]byte, core.FrameBytes(0))
	z := core.NewEnv(nil, 0x2000, bare, 0)
	mustPanic(t, "U64(0) on a zero-locals frame", slotMsg(0, core.FrameHeaderBytes), func() { z.U64(0) })
	mustPanic(t, "SetU64(0) on a zero-locals frame", slotMsg(0, core.FrameHeaderBytes), func() { z.SetU64(0, 1) })
	if b := z.Bytes(0, 0); len(b) != 0 {
		t.Fatalf("Bytes(0,0) on a zero-locals frame has %d bytes", len(b))
	}

	for _, c := range []struct{ off, n int }{
		{-8, 8},                    // negative offset
		{0, -1},                    // negative length
		{0, locals + 1},            // overflows the locals
		{locals, 1},                // starts at the end
		{math.MaxInt, 1},           // off+n wraps int
		{math.MaxInt, math.MaxInt}, // wraps again, to a small positive
		{8, math.MaxInt - 7},       // exactly MaxInt+1
	} {
		mustPanic(t, fmt.Sprintf("Bytes(%d,%d)", c.off, c.n),
			fmt.Sprintf("core: Bytes(%d,%d) outside frame of %d bytes", c.off, c.n, size),
			func() { e.Bytes(c.off, c.n) })
	}
}

// envParent spawns envChild, whose init writes two slots and a byte
// range through the CHILD Env; the child body must read exactly those
// values back from its own frame — on every backend the init's Env and
// the body's Env have to be views of the same bytes.
//
// Parent slots: 0 = child handle. Child slots: 0, 1 = words; bytes
// [16,24) = a byte pattern.
var envParentFID, envChildFID core.FuncID

func init() {
	envParentFID = core.Register("env-test-parent", envParent)
	envChildFID = core.Register("env-test-child", envChild)
}

func envParent(e *core.Env) core.Status {
	switch e.RP() {
	case 0:
		if !e.Spawn(1, 0, envChildFID, 3*8, func(c *core.Env) {
			c.SetU64(0, 40)
			c.SetI64(1, -2)
			copy(c.Bytes(16, 8), "uniaddr!")
		}) {
			return core.Unwound
		}
		fallthrough
	case 1:
		v, ok := e.Join(1, e.HandleAt(0))
		if !ok {
			return core.Unwound
		}
		e.ReturnU64(v)
		return core.Done
	}
	panic("env-test-parent: bad resume point")
}

func envChild(e *core.Env) core.Status {
	if string(e.Bytes(16, 8)) != "uniaddr!" {
		e.ReturnU64(0)
		return core.Done
	}
	e.ReturnI64(int64(e.U64(0)) - e.I64(1)) // 40 - -2
	return core.Done
}

func TestEnvInitWriteVisibleToChildBody(t *testing.T) {
	const want = 42
	runSim := func(helpFirst bool) (uint64, error) {
		cfg := core.DefaultConfig(2)
		cfg.HelpFirst = helpFirst
		m, err := core.NewMachine(cfg)
		if err != nil {
			return 0, err
		}
		return m.Run(envParentFID, 8, nil)
	}
	backends := []struct {
		name string
		run  func() (uint64, error)
	}{
		{"sim-child-first", func() (uint64, error) { return runSim(false) }},
		{"sim-help-first", func() (uint64, error) { return runSim(true) }},
		{"rt", func() (uint64, error) {
			cfg := rt.DefaultConfig(2)
			return rt.New(cfg).Run(envParentFID, 8, nil)
		}},
		// One dist worker runs in-process: no re-exec, so no TestMain.
		{"dist", func() (uint64, error) {
			res, err := dist.Run(dist.DefaultConfig(1), envParentFID, 8, nil)
			return res.Root, err
		}},
	}
	for _, b := range backends {
		got, err := b.run()
		if err != nil {
			t.Errorf("%s: %v", b.name, err)
		} else if got != want {
			t.Errorf("%s: child read %d through its frame, want %d", b.name, got, want)
		}
	}
}
