package uniaddr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"uniaddr/internal/rt"
)

// Service is a worker pool that outlives jobs. Where Run builds a
// world, executes one root task and tears everything down, a Service
// keeps its workers alive between submissions and multiplexes many
// task trees over them:
//
//	svc, err := uniaddr.NewService(
//		uniaddr.WithBackend(uniaddr.BackendRT),
//		uniaddr.WithWorkers(4))
//	job, err := svc.Submit(ctx, fid, localsLen, init, uniaddr.WithGrain(8))
//	rep, err := job.Wait()
//	...
//	err = svc.Close()
//
// On the rt backend the pool is REAL: one set of arenas, deques and
// record tables serves every job, workers park on the idle ladder
// between jobs instead of exiting, task records carry job tags, and
// each job's Report comes from exact per-job task tallies. On
// sim and dist the segment layout still ties a world to one root task,
// so the Service runs each job in an ephemeral world — through the same
// function Run uses — behind the same facade: admission, backpressure
// and per-job Reports behave identically, and dist jobs serialize (one
// fixed-base segment mapping per process).
//
// Run, NewService and Submit take the same Options. What configures
// the pool (backend, workers, steal transport, observability, admission
// bounds) is given to NewService; what configures one job (grain,
// deadline, weight, and on sim/dist its world's seed and trace) to
// Submit. An option given where it does not apply is an
// UnsupportedOptionError; README's "Service" section has the table.
type Service struct {
	o    options
	pool *rt.Pool // rt backend only

	mu       sync.Mutex
	closed   bool
	seq      uint64
	queued   int            // sim/dist: admitted, not yet dispatched
	slots    chan struct{}  // sim/dist: running-concurrency tokens
	wg       sync.WaitGroup // sim/dist: one goroutine per job
	finished atomic.Uint64  // sim/dist: jobs finalized
}

// ErrServiceSaturated is returned by Submit when the service's bounded
// admission queue is full — the backpressure signal. Callers decide
// whether to shed, retry or block.
var ErrServiceSaturated = errors.New("uniaddr: service admission queue full")

// ErrServiceClosed is returned by Submit after Close.
var ErrServiceClosed = errors.New("uniaddr: service closed")

// JobCanceledError reports a job canceled by its submission context or
// its WithMaxWall deadline before completing; Cause carries the reason.
// Cancellation is surgical on the rt pool: the canceled job's frames
// drain without running, its records are swept, and co-resident jobs
// never observe it.
type JobCanceledError = rt.JobCanceledError

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

// NewService validates the option set and builds the service. On the
// rt backend the workers start immediately and park until jobs arrive.
func NewService(opts ...ServiceOption) (*Service, error) {
	s := &Service{o: defaultOptions()}
	o := &s.o
	if err := o.parse(atNewService, opts); err != nil {
		return nil, err
	}
	if o.backend != BackendRT {
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
		// The rt pool's admission defaults (rt.Config.fillDefaults).
		if o.maxJobs <= 0 {
			o.maxJobs = max(2*o.workers, 8)
		}
		if o.queueDepth <= 0 {
			o.queueDepth = max(o.maxJobs, 16)
		}
		s.slots = make(chan struct{}, o.maxJobs)
		return s, nil
	}
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
	// A job's world is the service's, under the job's own options; the
	// pool's lifetime budget is not a job's.
	o := s.o
	o.maxWall = 0
	if err := o.parse(atSubmit, opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.pool == nil {
		return s.submitEphemeral(ctx, fid, localsLen, init, o)
	}
	// From here on the pool watches ctx and the job's budget, and
	// resolves the Job's ticket.
	tk, err := s.pool.Submit(fid, localsLen, init,
		rt.JobParams{Grain: o.grain, Weight: o.weight, Ctx: ctx, MaxWall: o.maxWall})
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
// MaxJobs concurrency slots, then runs an ephemeral world through the
// function Run uses (options.run), so the per-job Report is exactly
// Run's.
func (s *Service) submitEphemeral(ctx context.Context, fid FuncID, localsLen uint32, init func(*Env), o options) (*Job, error) {
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
		slot := false
		select {
		case <-ctx.Done():
		case s.slots <- struct{}{}:
			slot = true
		}
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		// Last cancellation point: an ephemeral world runs to completion
		// once launched (mid-run cancellation is an rt-pool capability),
		// so a ctx that expired while we waited for the slot must win
		// over the launch.
		if err := ctx.Err(); err != nil {
			if slot {
				<-s.slots
			}
			s.finalize(j, Report{Backend: o.backend, Workers: o.workers, Job: j.id},
				&JobCanceledError{Job: j.id, Cause: err})
			return
		}
		queueNS := time.Since(submitT).Nanoseconds()
		rep, err := o.run(fid, localsLen, init)
		<-s.slots
		rep.Job = j.id
		rep.QueueNS = queueNS
		s.finalize(j, rep, err)
	}()
	return j, nil
}

// finalize resolves a sim/dist job and then counts it, so JobsCompleted
// never runs ahead of the Done channels; each job's goroutine calls it
// once.
func (s *Service) finalize(j *Job, rep Report, err error) {
	j.rep, j.err = rep, err
	close(j.done)
	s.finished.Add(1)
}

// Close stops admission, waits for every submitted job to finalize and
// winds the service down. On the rt pool it verifies full pool
// quiescence (no surviving frame, waiter or record from any job) and
// streams the WithTrace timeline.
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
		if terr := finishObs(&Report{}, s.pool.Obs().Export(), s.o.trace); err == nil {
			err = terr
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
	return s.finished.Load()
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
