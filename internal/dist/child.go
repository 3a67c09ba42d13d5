package dist

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
)

// MaybeChild is the worker-process entrypoint hook. Any binary that can
// act as a dist parent (cmd/uniaddr-bench, test binaries) must call it
// FIRST in main/TestMain: the parent re-execs its own executable with
// the child spec in the environment, and MaybeChild detects that, runs
// the worker to completion and exits the process. In an ordinary
// invocation (no spec in the environment) it returns immediately.
//
// Re-execing the same binary is also what keeps the function registry
// aligned: every process runs the same package init chain, so the same
// names are registered — which the hello fingerprint then verifies
// rather than assumes.
func MaybeChild() {
	spec, present, err := childSpecFromEnv()
	if !present {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(childMain(spec))
}

// ctlConn bundles a control connection with its one Encoder/Decoder
// pair. ONE decoder per connection is load-bearing: json.Decoder reads
// ahead, so a second decoder on the same conn could lose buffered
// bytes of the next message.
type ctlConn struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func (c *ctlConn) close() {
	if c != nil && c.conn != nil {
		c.conn.Close()
	}
}

// dialCtl dials the coordinator, with the child's sends routed through
// the fault wrapper.
func dialCtl(spec childSpec, plan *fault.Plan) (*ctlConn, error) {
	raw, err := net.Dial("unix", spec.SockPath)
	if err != nil {
		return nil, err
	}
	conn := wrapCtl(raw, plan, spec.Rank)
	return &ctlConn{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
}

// ctlHandshake runs hello→start with bounded per-exchange deadlines,
// redialing with jittered exponential backoff on any failure. Every
// attempt replays the whole exchange — the coordinator's state machine
// is idempotent, so replays are always safe. setupErrText, when
// non-empty, travels in the hello and the returned start will be an
// abort.
func ctlHandshake(spec childSpec, plan *fault.Plan, setupErrText string, rng *rand.Rand, wlog *obs.Log) (*ctlConn, startMsg, error) {
	count, digest := core.RegistryFingerprint()
	hello := helloMsg{Rank: spec.Rank, PID: os.Getpid(), Count: count, Digest: digest, Err: setupErrText}
	var lastErr error
	for attempt := 0; attempt < ctlMaxAttempts; attempt++ {
		if attempt > 0 {
			wlog.Instant(obs.KCtlRetry, uint64(attempt), 0, -1)
			ctlBackoff(rng, attempt)
		}
		c, err := dialCtl(spec, plan)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.enc.Encode(hello); err != nil {
			lastErr = err
			c.close()
			continue
		}
		c.conn.SetReadDeadline(time.Now().Add(ctlStartTimeout))
		var start startMsg
		if err := c.dec.Decode(&start); err != nil {
			lastErr = err
			c.close()
			continue
		}
		c.conn.SetReadDeadline(time.Time{})
		return c, start, nil
	}
	return nil, startMsg{}, fmt.Errorf("dist child %d: handshake failed after %d attempts: %w", spec.Rank, ctlMaxAttempts, lastErr)
}

// sendBye delivers the final report and waits for the coordinator's
// ack. A lost bye or ack is retried on a FRESH handshake: the child
// redials, replays hello (the coordinator re-sends start immediately,
// the barrier being long open) and resends the bye. Without the ack a
// dropped final report would be indistinguishable from success.
func sendBye(spec childSpec, plan *fault.Plan, c *ctlConn, bye byeMsg, rng *rand.Rand, wlog *obs.Log) error {
	var lastErr error
	for attempt := 0; attempt < ctlMaxAttempts; attempt++ {
		if attempt > 0 {
			wlog.Instant(obs.KCtlRetry, uint64(attempt), 0, -1)
			ctlBackoff(rng, attempt)
			c.close()
			var start startMsg
			var err error
			// One re-handshake try per bye attempt keeps the total
			// conversation bounded by ctlMaxAttempts dials, not a
			// nested product.
			if c, err = dialCtl(spec, plan); err != nil {
				lastErr = err
				c = &ctlConn{}
				continue
			}
			count, digest := core.RegistryFingerprint()
			if err := c.enc.Encode(helloMsg{Rank: spec.Rank, PID: os.Getpid(), Count: count, Digest: digest}); err != nil {
				lastErr = err
				continue
			}
			c.conn.SetReadDeadline(time.Now().Add(ctlStartTimeout))
			if err := c.dec.Decode(&start); err != nil {
				lastErr = err
				continue
			}
			c.conn.SetReadDeadline(time.Time{})
			if !start.OK {
				// The run is aborting; the coordinator no longer wants
				// the bye. Not an error worth retrying.
				return nil
			}
		}
		if c.conn == nil {
			continue
		}
		if err := c.enc.Encode(bye); err != nil {
			lastErr = err
			continue
		}
		c.conn.SetReadDeadline(time.Now().Add(ctlAckTimeout))
		var ack ackMsg
		if err := c.dec.Decode(&ack); err != nil {
			lastErr = err
			continue
		}
		c.conn.SetReadDeadline(time.Time{})
		if ack.OK {
			return nil
		}
	}
	return fmt.Errorf("dist child %d: bye not acknowledged after %d attempts: %w", spec.Rank, ctlMaxAttempts, lastErr)
}

// childMain is a worker process's whole life: map the segment at the
// agreed address, say hello, wait for start, run the scheduler loop
// (stamping heartbeats), say bye and wait for the ack. All scheduling
// in between is one-sided shared memory.
func childMain(spec childSpec) int {
	lay := spec.layout()
	var seg *segment
	var setupErr error
	if err := assertLayoutSane(lay); err != nil {
		setupErr = err
	} else if f, err := os.OpenFile(spec.ShmPath, os.O_RDWR, 0); err != nil {
		setupErr = fmt.Errorf("dist: opening segment file: %w", err)
	} else {
		defer f.Close()
		// The child maps at EXACTLY the parent's address — no fallback.
		// If something already occupies that range in this process, the
		// uni-address contract is unsatisfiable and the error travels
		// back in the hello.
		b, err := mapSegmentAt(f, lay.total, uintptr(spec.SegBase))
		if err != nil {
			setupErr = err
		} else {
			seg, setupErr = attachSegment(b, lay)
			if setupErr == nil {
				// Attach this process's views of the segment-hosted event
				// rings (writes nothing; the parent zeroed the file).
				setupErr = seg.attachObs(wallClockSince(spec.ObsEpoch))
			}
		}
	}
	var wlog *obs.Log
	if seg != nil && setupErr == nil {
		wlog = seg.obsLog(spec.Rank)
	}
	plan, planErr := fault.NewPlan(spec.Fault, spec.Workers)
	if setupErr == nil && planErr != nil {
		setupErr = planErr
	}

	rng := rand.New(rand.NewSource(int64(spec.Seed*0x9e3779b97f4a7c15 + uint64(spec.Rank)*0xd6e8feb86659fd93 + 7)))
	setupErrText := ""
	if setupErr != nil {
		setupErrText = setupErr.Error()
	}
	hs := wlog.Clock()
	c, start, err := ctlHandshake(spec, plan, setupErrText, rng, wlog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist child %d: %v\n", spec.Rank, err)
		return 2
	}
	defer c.close()
	if setupErr != nil {
		return 3
	}
	if !start.OK {
		fmt.Fprintf(os.Stderr, "dist child %d: aborted by coordinator: %s\n", spec.Rank, start.Err)
		return 4
	}
	wlog.Emit(obs.KCtlHello, hs, wlog.Clock()-hs, 0, 0, -1)

	// Injected hang: after the delay the whole process falls silent —
	// the worker wedges at its next task entry AND the heartbeat stops,
	// modelling a process that is alive (no exit for the crash monitor
	// to see) but making no progress.
	var hung atomic.Bool
	if spec.HangRank == spec.Rank && spec.HangRank > 0 {
		time.AfterFunc(spec.HangAfter, func() { hung.Store(true) })
	}
	if spec.HeartbeatInterval > 0 {
		go func() {
			for !hung.Load() {
				seg.hbStamp(spec.Rank, uint64(time.Now().UnixNano()))
				// Second producer on the rank's ring — the FAA slot
				// reservation makes this safe beside the worker goroutine.
				wlog.Instant(obs.KHeartbeat, 0, 0, -1)
				time.Sleep(spec.HeartbeatInterval)
			}
		}()
	}

	w := newWorker(seg, spec.Rank, spec.Seed, spec.Grain, spec.StealBatch, spec.TierGroup, plan, &hung)
	runErr := w.run()
	bye := byeMsg{Rank: spec.Rank, Stats: w.FinalStats()}
	if runErr != nil {
		// Publish failure through the segment FIRST so sibling spins
		// unwedge even if the control plane is slow, then report it.
		seg.failStore(uint64(spec.Rank) + 1)
		bye.Err = runErr.Error()
	}
	bs := wlog.Clock()
	if err := sendBye(spec, plan, c, bye, rng, wlog); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	wlog.Emit(obs.KCtlBye, bs, wlog.Clock()-bs, 0, 0, -1)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dist child %d: %v\n", spec.Rank, runErr)
		return 5
	}
	return 0
}
