package dist

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/fault"
)

// ctlServer is the coordinator's control-plane endpoint for one
// launched set: a persistent accept loop whose per-connection handlers
// run hello once, then start→bye→ack for every run the set serves, and
// fold the results into per-rank LATEST state. Losing a connection at
// any point is recoverable — the child redials and replays — so the
// server never needs reliable delivery, only idempotent registration:
// a re-hello supersedes the rank's previous connection, a replayed bye
// is acknowledged again, the current start is re-sent on demand.
// Handlers wait on cond, never poll: between runs a set costs no CPU.
type ctlServer struct {
	ln      *net.UnixListener
	workers int
	plan    *fault.Plan

	mu       sync.Mutex
	cond     sync.Cond // on mu; broadcast at every change below
	conns    map[int]net.Conn
	pids     map[int]int
	round    *ctlRound // the run in flight or last run; nil before the first
	abortMsg string
	closed   bool
	expired  bool // awaitHellos's deadline passed
	setupErr error
	pCount   int
	pDigest  uint64
}

// ctlRound is one run's start and the byes it collected. byes[r] is
// written once, before got[r] closes, and read only after (bye).
type ctlRound struct {
	start startMsg
	// byeWait bounds a handler's bye read: the run's MaxWall plus
	// control slack (the child cannot report before its loop exits).
	byeWait time.Duration
	byes    []*byeMsg
	got     []chan struct{}
}

// bye returns rank's bye for this run, or nil if none has arrived.
func (r *ctlRound) bye(rank int) *byeMsg {
	select {
	case <-r.got[rank]:
		return r.byes[rank]
	default:
		return nil
	}
}

func newCtlServer(ln *net.UnixListener, workers int, plan *fault.Plan) *ctlServer {
	pCount, pDigest := core.RegistryFingerprint()
	s := &ctlServer{
		ln: ln, workers: workers, plan: plan,
		conns: make(map[int]net.Conn), pids: make(map[int]int),
		pCount: pCount, pDigest: pDigest,
	}
	s.cond.L = &s.mu
	return s
}

// serve accepts connections until the listener closes. Run in its own
// goroutine; handlers are per-connection goroutines.
func (s *ctlServer) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

// handle runs one connection's conversation. Any failure just closes
// the connection: the child's retry loop owns recovery.
func (s *ctlServer) handle(conn net.Conn) {
	dec := json.NewDecoder(conn) // ONE decoder per conn: it read-aheads
	conn.SetReadDeadline(time.Now().Add(ctlHelloTimeout))
	var hello helloMsg
	if err := dec.Decode(&hello); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Rank < 1 || hello.Rank >= s.workers {
		conn.Close()
		return
	}
	rank := hello.Rank

	s.mu.Lock()
	// Supersede: a redialing child's old connection (and its possibly
	// wedged handler) is closed so exactly one live conn serves a rank.
	if old := s.conns[rank]; old != nil && old != conn {
		old.Close()
	}
	s.conns[rank] = conn
	s.pids[rank] = hello.PID
	if s.setupErr == nil {
		if hello.Err != "" {
			s.setupErr = fmt.Errorf("dist: worker rank %d failed to attach the segment: %s", rank, hello.Err)
		} else if hello.Count != s.pCount || hello.Digest != s.pDigest {
			s.setupErr = &FingerprintMismatchError{
				Rank: rank, ParentCount: s.pCount, RankCount: hello.Count,
				ParentDigest: s.pDigest, RankDigest: hello.Digest,
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	var served *ctlRound
	for {
		s.mu.Lock()
		for s.conns[rank] == conn && !s.closed && s.abortMsg == "" && s.round == served {
			s.cond.Wait()
		}
		live, abortMsg, round := s.conns[rank] == conn && !s.closed, s.abortMsg, s.round
		s.mu.Unlock()
		if !live {
			conn.Close()
			return
		}
		if abortMsg != "" {
			json.NewEncoder(wrapCtl(conn, s.plan, rank)).Encode(startMsg{OK: false, Err: abortMsg})
			conn.Close()
			return
		}
		// The start send goes through the fault wrapper: a dropped start
		// is exactly a lost barrier release, which the child's redial
		// recovers.
		if err := json.NewEncoder(wrapCtl(conn, s.plan, rank)).Encode(round.start); err != nil {
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Now().Add(round.byeWait))
		var bye byeMsg
		if err := dec.Decode(&bye); err != nil {
			conn.Close()
			return
		}
		conn.SetReadDeadline(time.Time{})
		s.mu.Lock()
		if s.conns[rank] == conn && s.round == round && round.byes[rank] == nil {
			round.byes[rank] = &bye
			close(round.got[rank])
		}
		s.mu.Unlock()
		if err := json.NewEncoder(wrapCtl(conn, s.plan, rank)).Encode(ackMsg{OK: true}); err != nil {
			conn.Close()
			return
		}
		served = round
	}
}

// awaitHellos blocks until every child rank has registered, a child
// reported a setup failure, or the deadline passes.
func (s *ctlServer) awaitHellos(timeout time.Duration) error {
	t := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.setupErr != nil {
			return s.setupErr
		}
		missing := -1
		for r := 1; r < s.workers; r++ {
			if _, ok := s.pids[r]; !ok {
				missing = r
				break
			}
		}
		if missing < 0 {
			return nil
		}
		if s.expired {
			return &ControlTimeoutError{Phase: "hello", Rank: missing, Timeout: timeout}
		}
		s.cond.Wait()
	}
}

// startRun opens a run: every handler (present, and any that hellos
// later) sends msg to its child and then collects the child's bye into
// the returned round.
func (s *ctlServer) startRun(msg startMsg, byeWait time.Duration) *ctlRound {
	r := &ctlRound{start: msg, byeWait: byeWait, byes: make([]*byeMsg, s.workers), got: make([]chan struct{}, s.workers)}
	for i := range r.got {
		r.got[i] = make(chan struct{})
	}
	s.mu.Lock()
	s.round = r
	s.cond.Broadcast()
	s.mu.Unlock()
	return r
}

// abort makes every handler reply start{OK:false, Err:msg} instead.
func (s *ctlServer) abort(msg string) {
	s.mu.Lock()
	s.abortMsg = msg
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close shuts the listener (ending serve) and every registered conn
// (ending any blocked handler read, and — at the child's end — its wait
// for the next start).
func (s *ctlServer) close() {
	s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for _, c := range s.conns {
		c.Close()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// faultConn injects control-plane faults at the socket Write layer.
// json.Encoder issues exactly one Write per Encode, so each decision
// maps to one whole message:
//
//   - Delay: the write happens late (a congested control network).
//   - Drop: the write never happens, but reports success — the peer
//     must discover the loss by deadline, exactly like a lost packet.
//   - Trunc: a prefix is written and the connection is severed — the
//     peer's decoder sees malformed JSON or EOF.
type faultConn struct {
	net.Conn
	plan *fault.Plan
	rank int
}

// wrapCtl wraps conn with the plan's control-plane schedule; a nil or
// ctl-disabled plan returns conn unchanged.
func wrapCtl(conn net.Conn, plan *fault.Plan, rank int) net.Conn {
	if plan == nil || !plan.Config().CtlEnabled() {
		return conn
	}
	return &faultConn{Conn: conn, plan: plan, rank: rank}
}

func (f *faultConn) Write(b []byte) (int, error) {
	dec := f.plan.CtlSend(f.rank)
	if dec.Delay > 0 {
		time.Sleep(dec.Delay)
	}
	switch {
	case dec.Trunc:
		f.Conn.Write(b[:len(b)/2])
		f.Conn.Close()
		return len(b), nil
	case dec.Drop:
		return len(b), nil
	default:
		return f.Conn.Write(b)
	}
}

// ctlBackoff sleeps the jittered exponential redial backoff for the
// given attempt (1-based retries): base<<n capped, with ±50% jitter so
// retrying children do not stampede in lockstep.
func ctlBackoff(rng *rand.Rand, attempt int) {
	d := ctlBackoffBase << uint(attempt-1)
	if d > ctlBackoffCap {
		d = ctlBackoffCap
	}
	jit := time.Duration(rng.Int63n(int64(d))) - d/2
	time.Sleep(d + jit)
}
