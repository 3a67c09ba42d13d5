package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event exporter. The output is the JSON-object flavour of
// the trace-event format ("traceEvents" array) and loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one track (tid) per
// worker carrying task-execution, steal-attempt, suspend and RDMA-op
// slices, instant markers for faults, probes and retries, a deque-depth
// counter track, and flow arrows connecting the two ends of every task
// migration.
//
// Timestamps are written into the "ts"/"dur" fields in the export's
// clock domain — virtual cycles for the simulator, wall nanoseconds for
// the rt/dist backends — and the domain is stamped into the top-level
// "clockDomain" field so a trace is self-describing. (The viewer labels
// ts as µs; the scale is exact, only the unit label is off.) All output
// is deterministic: same run, same bytes.

// ChromeOpts customises the export.
type ChromeOpts struct {
	// FuncName resolves a task FuncID to a display name (nil = "task").
	FuncName func(uint32) string
	// Label names the process track (default "uniaddr").
	Label string
}

type chromeArgs struct {
	Name    string  `json:"name,omitempty"`   // metadata payload
	Task    uint64  `json:"task,omitempty"`   // TaskID
	Parent  uint64  `json:"parent,omitempty"` // parent TaskID
	Peer    *int32  `json:"peer,omitempty"`   // victim / target rank
	Bytes   uint64  `json:"bytes,omitempty"`
	Depth   *uint64 `json:"depth,omitempty"`
	Failed  bool    `json:"failed,omitempty"`
	Attempt uint64  `json:"attempt,omitempty"` // ctl redial attempt
	Job     uint64  `json:"job,omitempty"`     // service job ID
}

type chromeEvent struct {
	Name string      `json:"name,omitempty"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   uint64      `json:"ts"`
	Dur  *uint64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int32       `json:"tid"`
	ID   uint64      `json:"id,omitempty"`
	BP   string      `json:"bp,omitempty"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	ClockDomain     string            `json:"clockDomain"`
	OtherData       map[string]uint64 `json:"otherData,omitempty"`
}

func peerArg(p int32) *int32 {
	if p < 0 {
		return nil
	}
	v := p
	return &v
}

// WriteChromeTrace serialises an export — virtual-time or wall-clock —
// as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, ex *Export, opts *ChromeOpts) error {
	if ex == nil {
		return fmt.Errorf("obs: no export to write (observability disabled)")
	}
	if opts == nil {
		opts = &ChromeOpts{}
	}
	label := opts.Label
	if label == "" {
		label = "uniaddr"
	}
	fname := opts.FuncName
	if fname == nil {
		fname = func(uint32) string { return "task" }
	}
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: &chromeArgs{Name: label},
	})
	for _, l := range ex.Logs {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: l.Rank,
			Args: &chromeArgs{Name: fmt.Sprintf("worker%d", l.Rank)},
		})
	}
	slice := func(tid int32, e Event, name, cat string, args *chromeArgs) {
		d := e.Dur
		evs = append(evs, chromeEvent{
			Name: name, Cat: cat, Ph: "X", Ts: e.Time, Dur: &d,
			Pid: 0, Tid: tid, Args: args,
		})
	}
	instant := func(tid int32, ts uint64, name, cat string, args *chromeArgs) {
		evs = append(evs, chromeEvent{
			Name: name, Cat: cat, Ph: "i", Ts: ts, Pid: 0, Tid: tid, S: "t", Args: args,
		})
	}
	for _, l := range ex.Logs {
		rank := l.Rank
		for _, e := range l.Events {
			switch e.Kind {
			case KTask:
				slice(rank, e, fname(uint32(e.Arg)), "task", &chromeArgs{Task: uint64(e.Task), Job: e.Job})
			case KSpawn:
				instant(rank, e.Time, "spawn", "task", &chromeArgs{Task: uint64(e.Task), Parent: e.Arg})
			case KPopFail:
				instant(rank, e.Time, "pop-fail", "task", &chromeArgs{Task: uint64(e.Task)})
			case KJoinFast:
				instant(rank, e.Time, "join-fast", "task", &chromeArgs{Task: uint64(e.Task)})
			case KJoinMiss:
				instant(rank, e.Time, "join-miss", "task", &chromeArgs{Task: uint64(e.Task)})
			case KSuspend:
				slice(rank, e, "suspend", "sched", &chromeArgs{Task: uint64(e.Task), Bytes: e.Arg})
			case KResumeWait:
				slice(rank, e, "resume", "sched", &chromeArgs{Task: uint64(e.Task)})
			case KStealOK:
				slice(rank, e, "steal", "steal", &chromeArgs{Task: uint64(e.Task), Peer: peerArg(e.Peer), Bytes: e.Arg})
			case KStealEmpty:
				slice(rank, e, "steal(empty)", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KStealBusy:
				slice(rank, e, "steal(busy)", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KStealReject:
				slice(rank, e, "steal(reject)", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KStealFault:
				instant(rank, e.Time, "steal-fault", "steal", &chromeArgs{Peer: peerArg(e.Peer), Failed: true})
			case KStealRetry:
				slice(rank, e, "steal-retry", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KStealRollback:
				instant(rank, e.Time, "steal-rollback", "steal", &chromeArgs{Peer: peerArg(e.Peer), Failed: true})
			case KStealAbandon:
				slice(rank, e, "steal(abandoned)", "steal", &chromeArgs{Peer: peerArg(e.Peer), Failed: true})
			case KXfer:
				slice(rank, e, "xfer", "steal", &chromeArgs{Peer: peerArg(e.Peer), Bytes: e.Arg})
			case KRead, KWrite, KFAA:
				args := &chromeArgs{Peer: peerArg(e.Peer), Bytes: e.Arg, Failed: e.Failed()}
				slice(rank, e, e.Kind.String(), "rdma", args)
				if e.Failed() {
					// Mark the injected fault on both ends: the initiator
					// (whose op died) and the target (whose endpoint the
					// injector struck), so a chaos timeline shows the
					// fault in both contexts.
					instant(rank, e.Time+e.Dur, "fault", "fault", &chromeArgs{Peer: peerArg(e.Peer)})
					if e.Peer >= 0 {
						instant(e.Peer, e.Time+e.Dur, "fault", "fault", &chromeArgs{Peer: peerArg(rank)})
					}
				}
			case KNetRetry:
				slice(rank, e, "net-retry", "rdma", &chromeArgs{Peer: peerArg(e.Peer)})
			case KLifelinePush:
				instant(rank, e.Time, "lifeline-push", "lifeline", &chromeArgs{Task: uint64(e.Task), Peer: peerArg(e.Peer), Bytes: e.Arg})
			case KLifelineRecv:
				instant(rank, e.Time, "lifeline-recv", "lifeline", &chromeArgs{Task: uint64(e.Task), Peer: peerArg(e.Peer), Bytes: e.Arg})
			case KDepth:
				d := e.Arg
				evs = append(evs, chromeEvent{
					Name: "deque", Ph: "C", Ts: e.Time, Pid: 0, Tid: rank,
					Args: &chromeArgs{Depth: &d},
				})
			case KProbeCache:
				instant(rank, e.Time, "probe-cache", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KProbeHint:
				instant(rank, e.Time, "probe-hint", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KProbeBlind:
				instant(rank, e.Time, "probe-blind", "steal", &chromeArgs{Peer: peerArg(e.Peer)})
			case KNap:
				slice(rank, e, "nap", "idle", nil)
			case KPark:
				slice(rank, e, "park", "idle", nil)
			case KBlacklist:
				instant(rank, e.Time, "blacklist", "steal", &chromeArgs{Peer: peerArg(e.Peer), Failed: true})
			case KHeartbeat:
				instant(rank, e.Time, "heartbeat", "ctl", nil)
			case KCtlHello:
				slice(rank, e, "ctl-hello", "ctl", nil)
			case KCtlBye:
				slice(rank, e, "ctl-bye", "ctl", nil)
			case KCtlRetry:
				instant(rank, e.Time, "ctl-retry", "ctl", &chromeArgs{Attempt: e.Arg, Failed: true})
			}
		}
	}
	// Flow arrows: one s→f pair per migration hop, in task order.
	var flowID uint64
	for _, ln := range ex.Tasks {
		for _, h := range ln.Hops {
			flowID++
			evs = append(evs, chromeEvent{
				Name: "migrate", Cat: "flow", Ph: "s", Ts: h.Time, Pid: 0, Tid: h.From,
				ID: flowID, Args: &chromeArgs{Task: uint64(ln.ID)},
			})
			evs = append(evs, chromeEvent{
				Name: "migrate", Cat: "flow", Ph: "f", BP: "e", Ts: h.Time, Pid: 0, Tid: h.To,
				ID: flowID, Args: &chromeArgs{Task: uint64(ln.ID)},
			})
		}
	}
	other := map[string]uint64{}
	for _, nh := range ex.Hists {
		if nh.Name == "steal latency" && nh.Hist.Count > 0 {
			other["steal_latency_p50"] = nh.Hist.Quantile(0.50)
			other["steal_latency_p95"] = nh.Hist.Quantile(0.95)
			other["steal_latency_p99"] = nh.Hist.Quantile(0.99)
		}
	}
	for _, l := range ex.Logs {
		if l.Dropped > 0 {
			other[fmt.Sprintf("dropped_events_w%d", l.Rank)] = l.Dropped
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		ClockDomain:     ex.Clock,
		OtherData:       other,
	})
}
