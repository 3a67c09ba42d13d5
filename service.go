package uniaddr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/obs"
	"uniaddr/internal/rt"
)

// Service is a worker pool that outlives jobs. Where Run builds a
// world, executes one root task and tears everything down, a Service
// keeps its workers alive between submissions and multiplexes many
// task trees over them:
//
//	svc, err := uniaddr.NewService(
//		uniaddr.ServiceBackend(uniaddr.BackendRT),
//		uniaddr.ServiceWorkers(4))
//	job, err := svc.Submit(ctx, fid, localsLen, init)
//	rep, err := job.Wait()
//	...
//	err = svc.Close()
//
// On the rt backend the pool is REAL: one set of arenas, deques and
// record tables serves every job, workers park on the idle ladder
// between jobs instead of exiting, task records carry job tags, and
// each job's Report comes from exact per-job task tallies. On
// sim and dist the segment layout still ties a world to one root task,
// so the Service runs each job in an ephemeral world behind the same
// facade — admission, backpressure and per-job Reports behave
// identically, and dist jobs serialize (one fixed-base segment mapping
// per process).
//
// Option classes split along the pool boundary. ServiceOption values
// configure what the pool IS (backend, workers, scheduling seed, steal
// transport, observability, admission bounds) and are fixed at
// NewService. JobOption values configure one submission (granularity,
// per-job deadline, weight; per-job seed and trace where each job gets
// its own world). Migration from Run options:
//
//	Run option       Service equivalent
//	WithBackend      ServiceBackend
//	WithWorkers      ServiceWorkers
//	WithSeed         ServiceSeed (rt pool) / JobSeed (sim, dist)
//	WithObs          ServiceObs
//	WithTrace        ServiceTrace (rt pool) / JobTrace (sim, dist)
//	WithStealBatch   ServiceStealBatch
//	WithTierGroup    ServiceTierGroup
//	WithFault        ServiceFault
//	WithCosts        ServiceCosts (sim)
//	WithNet          ServiceNet (sim)
//	WithMaxWall      ServiceMaxWall (pool lifetime) / JobMaxWall (one job)
//	WithGrain        JobGrain
//
// Run itself remains supported, byte-for-byte: it is sugar for a
// throwaway one-job Service.
type Service struct {
	o    serviceOptions
	pool *rt.Pool // rt backend only

	mu     sync.Mutex
	closed bool
	seq    uint64
	queued int            // sim/dist: admitted, not yet dispatched
	slots  chan struct{}  // sim/dist: running-concurrency tokens
	wg     sync.WaitGroup // sim/dist: one goroutine per job
}

// ErrServiceSaturated is returned by Submit when the service's bounded
// admission queue is full — the backpressure signal. Callers decide
// whether to shed, retry or block.
var ErrServiceSaturated = errors.New("uniaddr: service admission queue full")

// ErrServiceClosed is returned by Submit after Close.
var ErrServiceClosed = errors.New("uniaddr: service closed")

// JobCanceledError reports a job canceled by its submission context or
// JobMaxWall deadline before completing; Cause carries the reason.
// Cancellation is surgical on the rt pool: the canceled job's frames
// drain without running, its records are swept, and co-resident jobs
// never observe it.
type JobCanceledError = rt.JobCanceledError

// serviceOptions is the pool-construction state.
type serviceOptions struct {
	backend    string
	workers    int
	seed       uint64
	obs        bool
	trace      io.Writer
	stealBatch int
	tierGroup  int
	fault      *FaultConfig
	costs      *Costs
	net        *NetParams
	maxJobs    int
	queueDepth int
	maxWall    time.Duration
}

// ServiceOption configures a Service at construction.
type ServiceOption func(*serviceOptions)

// ServiceBackend selects the backend: BackendSim (default), BackendRT
// (the persistent pool) or BackendDist.
func ServiceBackend(name string) ServiceOption { return func(o *serviceOptions) { o.backend = name } }

// ServiceWorkers sets the worker count. Default 4.
func ServiceWorkers(n int) ServiceOption { return func(o *serviceOptions) { o.workers = n } }

// ServiceSeed pins the scheduling seed of the rt pool's victim
// selection (fixed for the pool's lifetime — per-job seeds need a
// per-job world, i.e. JobSeed on sim/dist). Also the default JobSeed
// for sim/dist jobs. Default 1.
func ServiceSeed(seed uint64) ServiceOption { return func(o *serviceOptions) { o.seed = seed } }

// ServiceObs toggles the observability recorder for the service's
// workers; on the rt pool the one recorder spans every job and each
// task-execution event carries its job ID.
func ServiceObs(on bool) ServiceOption { return func(o *serviceOptions) { o.obs = on } }

// ServiceTrace streams the rt pool's whole timeline — every job,
// job-tagged — as a Chrome/Perfetto trace to w at Close (implies
// ServiceObs(true)). Sim and dist jobs each run in their own world, so
// per-job JobTrace applies there instead; ServiceTrace is rejected.
func ServiceTrace(w io.Writer) ServiceOption { return func(o *serviceOptions) { o.trace = w } }

// ServiceStealBatch bounds steal-batch width, as WithStealBatch.
func ServiceStealBatch(n int) ServiceOption { return func(o *serviceOptions) { o.stealBatch = n } }

// ServiceTierGroup sets the victim-selection tier width, as
// WithTierGroup.
func ServiceTierGroup(n int) ServiceOption { return func(o *serviceOptions) { o.tierGroup = n } }

// ServiceFault enables deterministic fault injection across the
// service's workers (knob classes screened per backend, as WithFault).
func ServiceFault(fc FaultConfig) ServiceOption { return func(o *serviceOptions) { o.fault = &fc } }

// ServiceCosts sets the simulated cost profile for sim jobs.
func ServiceCosts(c Costs) ServiceOption { return func(o *serviceOptions) { o.costs = &c } }

// ServiceNet sets the simulated fabric parameters for sim jobs.
func ServiceNet(p NetParams) ServiceOption { return func(o *serviceOptions) { o.net = &p } }

// ServiceMaxJobs bounds how many jobs may be resident (dispatched, not
// yet finalized) at once. Default 2×workers, at least 8. Dist is
// pinned to 1 by its one-fixed-base-segment-per-process layout, so
// values above 1 are rejected there with UnsupportedOptionError.
func ServiceMaxJobs(n int) ServiceOption { return func(o *serviceOptions) { o.maxJobs = n } }

// ServiceQueueDepth bounds the admission queue; Submit returns
// ErrServiceSaturated beyond it. Default max(MaxJobs, 16).
func ServiceQueueDepth(n int) ServiceOption { return func(o *serviceOptions) { o.queueDepth = n } }

// ServiceMaxWall bounds the SERVICE's whole lifetime (0, the default,
// is unbounded): past it the pool fails every outstanding job with a
// timeout error. Bound a single job with JobMaxWall.
func ServiceMaxWall(d time.Duration) ServiceOption { return func(o *serviceOptions) { o.maxWall = d } }

// jobOptions is the per-submission state.
type jobOptions struct {
	seed    *uint64
	grain   uint64
	maxWall time.Duration
	trace   io.Writer
	weight  int
}

// JobOption configures one Submit.
type JobOption func(*jobOptions)

// JobSeed pins the scheduling seed of this job's world. Sim and dist
// only — the rt pool's seed is a pool property (ServiceSeed).
func JobSeed(seed uint64) JobOption { return func(o *jobOptions) { s := seed; o.seed = &s } }

// JobGrain sets the job's granularity cutoff, as WithGrain: 0 (the
// default) disables coalescing, GrainAuto adapts, any other value is a
// static sequential cutoff. On the rt pool the grain travels with the
// job's task tree, so co-resident jobs run at different grains.
func JobGrain(g uint64) JobOption { return func(o *jobOptions) { o.grain = g } }

// JobMaxWall bounds this job's wall-clock time from dispatch — the
// clock arms only when a worker claims the job, so time spent in the
// admission queue never counts against the budget. Past it the job is
// canceled (JobCanceledError) without disturbing co-resident jobs.
// Sim jobs have no wall clock; the option is ignored there, matching
// WithMaxWall.
func JobMaxWall(d time.Duration) JobOption { return func(o *jobOptions) { o.maxWall = d } }

// JobTrace streams this job's Chrome trace to w (implies observability
// for the job's world). Sim and dist only — rt pool events span jobs
// in shared rings; use ServiceTrace for the pool-wide timeline.
func JobTrace(w io.Writer) JobOption { return func(o *jobOptions) { o.trace = w } }

// JobWeight biases admission order on the rt pool: among queued jobs
// the dispatcher picks the lowest arrival-sequence/weight key, so equal
// weights are FIFO and a weight-w job is admitted as if it had arrived
// w times earlier. <= 0 means 1. Sim/dist admission is FIFO.
func JobWeight(w int) JobOption { return func(o *jobOptions) { o.weight = w } }

// Job is the submitter's handle on one admitted job. On the rt pool it
// is a view of the pool's ticket, which the completing worker resolves.
type Job struct {
	id      uint64
	tk      *rt.Ticket // rt pool only
	workers int        // rt pool only: for the Report
	// sim/dist: resolved by the job's ephemeral-world goroutine.
	done chan struct{}
	rep  Report
	err  error
}

// ID returns the job's service-wide submission sequence number
// (1-based). On the rt backend it is also the job tag on the job's obs
// events.
func (j *Job) ID() uint64 { return j.id }

// Done returns a channel closed when the job has been finalized.
func (j *Job) Done() <-chan struct{} {
	if j.tk != nil {
		return j.tk.Done()
	}
	return j.done
}

// Wait blocks until the job is finalized and returns its Report — the
// same shape Run returns, plus the Job and QueueNS fields. On the rt
// pool the report's task counters are the job's OWN (exact per-job
// quiescence accounting); pool-wide steal counters are not attributed
// to single jobs.
func (j *Job) Wait() (Report, error) {
	if j.tk != nil {
		res, err := j.tk.Wait()
		return Report{
			Backend: BackendRT, Workers: j.workers,
			Root: res.Result, WallNS: res.ExecNS,
			Tasks: res.Tasks, Spawns: res.Spawns,
			Job: j.id, QueueNS: res.QueueNS,
		}, err
	}
	<-j.done
	return j.rep, j.err
}

// finalize resolves a sim/dist job; each job's goroutine calls it once.
func (j *Job) finalize(rep Report, err error) {
	j.rep, j.err = rep, err
	close(j.done)
}

// NewService validates the option set and builds the service. On the
// rt backend the workers start immediately and park until jobs arrive.
func NewService(opts ...ServiceOption) (*Service, error) {
	o := serviceOptions{backend: BackendSim, workers: 4, seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 1 {
		return nil, fmt.Errorf("uniaddr: ServiceWorkers(%d): need at least one worker", o.workers)
	}
	if err := rejectFaultKnobs(o.backend, o.fault); err != nil {
		return nil, err
	}
	switch o.backend {
	case BackendSim:
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.stealBatch != 0, "ServiceStealBatch"},
			{o.tierGroup != 0, "ServiceTierGroup"},
			{o.trace != nil, "ServiceTrace (sim jobs trace per job: JobTrace)"},
			{o.maxWall != 0, "ServiceMaxWall"},
		} {
			if bad.set {
				return nil, &UnsupportedOptionError{Backend: o.backend, Option: bad.name}
			}
		}
	case BackendRT, BackendDist:
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{o.costs != nil, "ServiceCosts"},
			{o.net != nil, "ServiceNet"},
		} {
			if bad.set {
				return nil, &UnsupportedOptionError{Backend: o.backend, Option: bad.name}
			}
		}
		if o.backend == BackendDist && o.trace != nil {
			return nil, &UnsupportedOptionError{Backend: o.backend, Option: "ServiceTrace (dist jobs trace per job: JobTrace)"}
		}
	default:
		return nil, fmt.Errorf("uniaddr: unknown backend %q (ServiceBackend accepts %q, %q, %q)",
			o.backend, BackendSim, BackendRT, BackendDist)
	}
	if o.backend == BackendDist {
		// One fixed-base segment mapping per process: dist jobs cannot
		// share a resident process, so they serialize through one slot —
		// a knob value asking for more is rejected, never ignored.
		if o.maxJobs > 1 {
			return nil, &UnsupportedOptionError{Backend: o.backend,
				Option: "ServiceMaxJobs > 1 (dist serializes jobs through one fixed-base segment mapping)"}
		}
		o.maxJobs = 1
	}
	if o.maxJobs <= 0 {
		o.maxJobs = 2 * o.workers
		if o.maxJobs < 8 {
			o.maxJobs = 8
		}
	}
	if o.queueDepth <= 0 {
		o.queueDepth = o.maxJobs
		if o.queueDepth < 16 {
			o.queueDepth = 16
		}
	}
	s := &Service{o: o}
	if o.backend == BackendRT {
		cfg := rt.DefaultConfig(o.workers)
		cfg.Seed = o.seed
		cfg.Obs = o.obs || o.trace != nil
		cfg.StealBatch = o.stealBatch
		cfg.TierGroup = o.tierGroup
		cfg.MaxWall = o.maxWall
		cfg.MaxJobs = o.maxJobs
		cfg.QueueDepth = o.queueDepth
		if o.fault != nil {
			cfg.Fault = *o.fault
		}
		pool, err := rt.NewPool(cfg)
		if err != nil {
			return nil, err
		}
		s.pool = pool
	} else {
		s.slots = make(chan struct{}, o.maxJobs)
	}
	return s, nil
}

// Submit admits fid(localsLen bytes of locals, initialised by init) as
// one job. It never blocks on a full queue: past ServiceQueueDepth it
// returns ErrServiceSaturated immediately. Canceling ctx cancels the
// job and its Wait returns a JobCanceledError. On the rt pool
// cancellation is effective queued or MID-RUN: the canceled tree's
// frames drain without executing and co-resident jobs are untouched.
// Sim and dist jobs run each in an ephemeral world that executes to
// completion once launched, so there ctx cancels the job only up to
// the moment its world starts.
func (s *Service) Submit(ctx context.Context, fid FuncID, localsLen uint32, init func(*Env), opts ...JobOption) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var jo jobOptions
	for _, opt := range opts {
		opt(&jo)
	}
	if s.o.backend == BackendRT {
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{jo.seed != nil, "JobSeed (the rt pool's seed is ServiceSeed)"},
			{jo.trace != nil, "JobTrace (the rt pool traces service-wide: ServiceTrace)"},
		} {
			if bad.set {
				return nil, &UnsupportedOptionError{Backend: s.o.backend, Option: bad.name}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.o.backend == BackendRT {
		return s.submitRT(ctx, fid, localsLen, init, jo)
	}
	return s.submitEphemeral(ctx, fid, localsLen, init, jo)
}

// submitRT admits a job onto the persistent rt pool, which from here on
// watches ctx and the JobMaxWall budget and resolves the Job's ticket.
func (s *Service) submitRT(ctx context.Context, fid FuncID, localsLen uint32, init func(*Env), jo jobOptions) (*Job, error) {
	tk, err := s.pool.Submit(fid, localsLen, init,
		rt.JobParams{Grain: jo.grain, Weight: jo.weight, Ctx: ctx, MaxWall: jo.maxWall})
	switch {
	case err == nil:
		return &Job{id: tk.ID(), tk: tk, workers: s.o.workers}, nil
	case errors.Is(err, rt.ErrPoolSaturated):
		return nil, ErrServiceSaturated
	case errors.Is(err, rt.ErrPoolClosed):
		return nil, ErrServiceClosed
	}
	return nil, err
}

// submitEphemeral admits a sim/dist job: it waits for one of the
// MaxJobs concurrency slots, then runs an ephemeral world via the same
// paths Run uses, so the per-job Report is exactly Run's.
func (s *Service) submitEphemeral(ctx context.Context, fid FuncID, localsLen uint32, init func(*Env), jo jobOptions) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	if s.queued >= s.o.queueDepth {
		s.mu.Unlock()
		return nil, ErrServiceSaturated
	}
	s.queued++
	s.seq++
	j := &Job{id: s.seq, done: make(chan struct{})}
	s.wg.Add(1)
	s.mu.Unlock()
	submitT := time.Now()
	go func() {
		defer s.wg.Done()
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			j.finalize(Report{Backend: s.o.backend, Workers: s.o.workers, Job: j.id},
				&JobCanceledError{Job: j.id, Cause: ctx.Err()})
			return
		case s.slots <- struct{}{}:
		}
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		// Last cancellation point: an ephemeral world runs to completion
		// once launched (mid-run cancellation is an rt-pool capability),
		// so a ctx that expired while we waited for the slot must win
		// over the launch.
		if err := ctx.Err(); err != nil {
			<-s.slots
			j.finalize(Report{Backend: s.o.backend, Workers: s.o.workers, Job: j.id},
				&JobCanceledError{Job: j.id, Cause: err})
			return
		}
		queueNS := time.Since(submitT).Nanoseconds()
		ro := options{
			backend: s.o.backend, workers: s.o.workers, seed: s.o.seed,
			costs: s.o.costs, net: s.o.net, fault: s.o.fault,
			obs: s.o.obs || jo.trace != nil, trace: jo.trace,
			maxWall: jo.maxWall, grain: jo.grain,
			stealBatch: s.o.stealBatch, tierGroup: s.o.tierGroup,
		}
		if jo.seed != nil {
			ro.seed = *jo.seed
		}
		var rep Report
		var err error
		if s.o.backend == BackendSim {
			rep, err = runSim(ro, fid, localsLen, init)
		} else {
			rep, err = runDist(ro, fid, localsLen, init)
		}
		<-s.slots
		rep.Job = j.id
		rep.QueueNS = queueNS
		j.finalize(rep, err)
	}()
	return j, nil
}

// Close stops admission, waits for every submitted job to finalize and
// winds the service down. On the rt pool it verifies full pool
// quiescence (no surviving frame, waiter or record from any job) and
// streams the ServiceTrace timeline.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServiceClosed
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if s.pool == nil {
		return nil
	}
	err := s.pool.Close()
	if errors.Is(err, rt.ErrPoolClosed) {
		err = ErrServiceClosed
	}
	if s.o.trace != nil {
		ex := s.pool.Obs().Export()
		if ex == nil {
			if err == nil {
				err = fmt.Errorf("uniaddr: ServiceTrace set but the pool recorded no observability data")
			}
		} else {
			opts := &obs.ChromeOpts{FuncName: func(id uint32) string { return core.FuncName(core.FuncID(id)) }}
			if terr := obs.WriteChromeTraceExport(s.o.trace, ex, opts); terr != nil && err == nil {
				err = fmt.Errorf("uniaddr: writing service trace: %w", terr)
			}
		}
	}
	return err
}

// Workers returns the service's worker count.
func (s *Service) Workers() int { return s.o.workers }

// JobsCompleted returns how many jobs have been finalized so far
// (including canceled ones). Safe to call mid-run.
func (s *Service) JobsCompleted() uint64 {
	if s.pool != nil {
		return s.pool.JobsCompleted()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq - uint64(s.queued) - uint64(len(s.slots))
}

// WorkersExited returns how many pool worker goroutines have returned
// (rt backend; 0 elsewhere). It must stay 0 until Close — the
// observable proof that the pool reuses its workers across jobs rather
// than recreating them. Safe to call mid-run.
func (s *Service) WorkersExited() uint64 {
	if s.pool != nil {
		return s.pool.WorkersExited()
	}
	return 0
}

// ParkedWorkers returns how many pool workers are currently parked
// between jobs (rt backend; 0 elsewhere). Safe to call mid-run.
func (s *Service) ParkedWorkers() int {
	if s.pool != nil {
		return s.pool.ParkedWorkers()
	}
	return 0
}
