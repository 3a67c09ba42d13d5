package dist

import (
	"encoding/json"
	"errors"
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
// the child spec in the environment, and MaybeChild detects that, serves
// runs until the coordinator closes its control connection, and exits
// the process. In an ordinary invocation (no spec in the environment)
// it returns immediately.
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

// dialHello is one handshake attempt: dial the coordinator (the
// child's sends routed through the fault wrapper), send hello and wait,
// bounded by ctlStartTimeout, for the run's start. errText, when
// non-empty, travels in the hello and the start will be an abort. A
// failed attempt closes its connection.
func dialHello(spec childSpec, plan *fault.Plan, errText string) (*ctlConn, startMsg, error) {
	raw, err := net.Dial("unix", spec.SockPath)
	if err != nil {
		return nil, startMsg{}, err
	}
	conn := wrapCtl(raw, plan, spec.Rank)
	c := &ctlConn{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
	count, digest := core.RegistryFingerprint()
	if err := c.enc.Encode(helloMsg{Rank: spec.Rank, PID: os.Getpid(), Count: count, Digest: digest, Err: errText}); err != nil {
		c.close()
		return nil, startMsg{}, err
	}
	c.conn.SetReadDeadline(time.Now().Add(ctlStartTimeout))
	var start startMsg
	if err := c.dec.Decode(&start); err != nil {
		c.close()
		return nil, startMsg{}, err
	}
	c.conn.SetReadDeadline(time.Time{})
	return c, start, nil
}

// ctlHandshake runs hello→start, redialing with jittered exponential
// backoff on any failure. Every attempt replays the whole exchange —
// the coordinator's state machine is idempotent, so replays are always
// safe. redials counts the failed attempts before the one returned.
func ctlHandshake(spec childSpec, plan *fault.Plan, setupErrText string, rng *rand.Rand) (*ctlConn, startMsg, int, error) {
	var lastErr error
	for attempt := 0; attempt < ctlMaxAttempts; attempt++ {
		if attempt > 0 {
			ctlBackoff(rng, attempt)
		}
		c, start, err := dialHello(spec, plan, setupErrText)
		if err != nil {
			lastErr = err
			continue
		}
		return c, start, attempt, nil
	}
	return nil, startMsg{}, 0, fmt.Errorf("dist child %d: handshake failed after %d attempts: %w", spec.Rank, ctlMaxAttempts, lastErr)
}

// sendBye delivers the run's report and waits for the coordinator's
// ack. A lost bye or ack is retried on a FRESH handshake: the child
// redials, replays hello (the coordinator re-sends the run's start
// immediately) and resends the bye. Without the ack a dropped report
// would be indistinguishable from success. It returns the connection
// the ack arrived on — the one the next start will come down.
func sendBye(spec childSpec, plan *fault.Plan, c *ctlConn, bye byeMsg, rng *rand.Rand, wlog *obs.Log) (*ctlConn, error) {
	var lastErr error
	for attempt := 0; attempt < ctlMaxAttempts; attempt++ {
		if attempt > 0 {
			wlog.Instant(obs.KCtlRetry, uint64(attempt), 0, -1)
			ctlBackoff(rng, attempt)
			c.close()
			// One handshake attempt per bye attempt keeps the whole
			// conversation bounded by ctlMaxAttempts dials, not a
			// nested product.
			var start startMsg
			var err error
			if c, start, err = dialHello(spec, plan, ""); err != nil {
				lastErr = err
				continue
			}
			if !start.OK {
				// The run is aborting; the coordinator no longer wants
				// the bye. Not an error worth retrying.
				return c, nil
			}
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
			return c, nil
		}
	}
	return c, fmt.Errorf("dist child %d: bye not acknowledged after %d attempts: %w", spec.Rank, ctlMaxAttempts, lastErr)
}

// childMain is a worker process's whole life: map the segment at the
// agreed address, say hello, then serve runs — each opened by a start
// and closed by a bye/ack — until the coordinator closes the control
// connection. All scheduling within a run is one-sided shared memory.
func childMain(spec childSpec) int {
	lay := spec.layout()
	var seg *segment
	var setupErr error
	if err := assertLayoutSane(lay); err != nil {
		setupErr = err
	} else if f, err := os.OpenFile(spec.ShmPath, os.O_RDWR, 0); err != nil {
		setupErr = fmt.Errorf("dist: opening segment file: %w", err)
	} else {
		// The child maps at EXACTLY the parent's address — no fallback.
		// If something already occupies that range in this process, the
		// uni-address contract is unsatisfiable and the error travels
		// back in the hello.
		b, err := mapSegmentAt(f, lay.total, uintptr(spec.SegBase))
		f.Close() // the mapping keeps the pages
		if err != nil {
			setupErr = err
		} else {
			seg, setupErr = attachSegment(b, lay)
		}
	}
	plan, planErr := fault.NewPlan(spec.Fault, spec.Workers)
	if setupErr == nil && planErr != nil {
		setupErr = planErr
	}

	// Backoff jitter only; a set that can lose control messages has a
	// fault schedule, whose seed is the run's.
	rng := rand.New(rand.NewSource(int64(spec.Fault.Seed*0x9e3779b97f4a7c15 + uint64(spec.Rank)*0xd6e8feb86659fd93 + 7)))
	setupErrText := ""
	if setupErr != nil {
		setupErrText = setupErr.Error()
	}
	waitFrom := time.Now().UnixNano()
	c, start, redials, err := ctlHandshake(spec, plan, setupErrText, rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist child %d: %v\n", spec.Rank, err)
		return 2
	}
	// Every return below ends the process, which closes c.
	if setupErr != nil {
		return 3
	}
	for {
		if !start.OK {
			fmt.Fprintf(os.Stderr, "dist child %d: aborted by coordinator: %s\n", spec.Rank, start.Err)
			return 4
		}
		var code int
		if c, code = childRun(spec, seg, plan, c, start, waitFrom, redials, rng); code != 0 {
			return code
		}
		// Between runs: block until the next start. EOF means the set
		// was discarded or the coordinator died — either way, done.
		waitFrom, redials, start = time.Now().UnixNano(), 0, startMsg{}
		if err := c.dec.Decode(&start); err != nil {
			return 0
		}
	}
}

// childRun is one run on this child: reset what the rank alone writes,
// run the scheduler loop (stamping heartbeats), say bye and wait for the
// ack. It returns the connection the ack came on and a non-zero exit
// code if the child must end.
func childRun(spec childSpec, seg *segment, plan *fault.Plan, c *ctlConn, start startMsg, waitFrom int64, redials int, rng *rand.Rand) (*ctlConn, int) {
	if err := seg.resetOwn(spec.Rank, start.ObsEpoch); err != nil {
		fmt.Fprintf(os.Stderr, "dist child %d: %v\n", spec.Rank, err)
		return c, 3
	}
	wlog := seg.obsLog(spec.Rank)
	// The start span: from this rank's hello (or its last bye) to the
	// run's start, clipped to the run's epoch.
	from := max(waitFrom, start.ObsEpoch)
	wlog.Emit(obs.KCtlHello, uint64(from-start.ObsEpoch), uint64(time.Now().UnixNano()-from), uint64(redials), 0, -1)

	// Injected hang: after the delay the whole process falls silent —
	// the worker wedges at its next task entry AND the heartbeat stops,
	// modelling a process that is alive (no exit for the crash monitor
	// to see) but making no progress.
	var hung atomic.Bool
	if spec.HangRank == spec.Rank && spec.HangRank > 0 {
		time.AfterFunc(spec.HangAfter, func() { hung.Store(true) })
	}
	stopHB := heartbeat(seg, spec.Rank, start.HeartbeatInterval, &hung, wlog)
	unwatch := watchCoordinator(c)

	w := newWorker(seg, spec.Rank, start, plan, &hung)
	runErr := w.run()
	bs := wlog.Clock()
	unwatch()
	stopHB()
	bye := byeMsg{Rank: spec.Rank, Stats: w.FinalStats()}
	if runErr != nil {
		// Publish failure through the segment FIRST so sibling spins
		// unwedge even if the control plane is slow, then report it.
		seg.failStore(uint64(spec.Rank) + 1)
		bye.Err = runErr.Error()
	}
	// The farewell span ends at the send: the coordinator harvests the
	// rings as soon as it holds every bye, so the ack comes too late to
	// be recorded in this run.
	wlog.Emit(obs.KCtlBye, bs, wlog.Clock()-bs, 0, 0, -1)
	c, err := sendBye(spec, plan, c, bye, rng, wlog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return c, 2
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dist child %d: %v\n", spec.Rank, runErr)
		return c, 5
	}
	return c, 0
}

// heartbeat stamps rank's liveness slot every interval (and records it
// in the rank's ring) until the returned stop is called or the injected
// hang sets hung. stop returns once the stamping has ended, so no stamp
// of this run lands after its bye.
func heartbeat(seg *segment, rank int, interval time.Duration, hung *atomic.Bool, wlog *obs.Log) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for !hung.Load() {
			seg.hbStamp(rank, uint64(time.Now().UnixNano()))
			// Second producer on the rank's ring — the FAA slot
			// reservation makes this safe beside the worker goroutine.
			wlog.Instant(obs.KHeartbeat, 0, 0, -1)
			select {
			case <-quit:
				return
			case <-time.After(interval):
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// watchCoordinator ends the process if the coordinator goes away
// mid-run. The coordinator writes nothing on a child's connection
// between start and ack, so a read that returns anything but the
// deadline stop() sets means EOF: the coordinator exited (or was
// killed) and its end of the socket closed. That, not Pdeathsig, is
// the death signal: Pdeathsig fires when the forking THREAD exits,
// which a Go runtime does while its process lives on.
func watchCoordinator(c *ctlConn) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b [1]byte
		if _, err := c.conn.Read(b[:]); errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		os.Exit(6)
	}()
	return func() {
		c.conn.SetReadDeadline(time.Unix(1, 0))
		<-done
		c.conn.SetReadDeadline(time.Time{})
	}
}
