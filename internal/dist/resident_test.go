package dist_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"uniaddr/internal/core"
	"uniaddr/internal/dist"
	"uniaddr/internal/fault"
	"uniaddr/internal/obs"
	"uniaddr/internal/workloads"
)

// coordinatorEnv turns a re-exec of this test binary into a coordinator
// (see TestMain). "once" runs once, prints its resident children's PIDs
// and exits without discarding them; "spin" prints "running" from
// inside a run that never ends, for the test to kill it mid-run.
const coordinatorEnv = "UNIADDR_DIST_TEST_COORDINATOR"

// spinRootFID announces the run and then spins on rank 0 until killed.
var spinRootFID = core.Register("dist_test.spinroot", func(e *core.Env) core.Status {
	fmt.Println("running")
	for start := time.Now(); time.Since(start) < time.Minute; {
	}
	e.ReturnU64(0)
	return core.Done
})

// coordinateOnce is that coordinator's whole life.
func coordinateOnce() int {
	if os.Getenv(coordinatorEnv) == "spin" {
		dist.Run(dist.DefaultConfig(3), spinRootFID, 0, nil)
		return 1
	}
	spec := workloads.Fib(16, 10)
	res, err := dist.Run(dist.DefaultConfig(3), spec.Fid, spec.Locals, spec.Init)
	if err != nil || res.Root != spec.Expected {
		fmt.Fprintf(os.Stderr, "coordinator run: root %d, err %v\n", res.Root, err)
		return 1
	}
	for _, pids := range dist.ResidentPIDs() {
		for _, pid := range pids {
			fmt.Println(pid)
		}
	}
	return 0
}

// procState returns the state letter of /proc/<pid>/stat, or 0 if the
// process is gone.
func procState(pid int) byte {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may hold spaces; the state
	// follows the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 || i+2 >= len(b) {
		return 0
	}
	return b[i+2]
}

// ended reports whether pid has exited: gone, or a zombie nobody reaped.
func ended(pid int) bool {
	s := procState(pid)
	return s == 0 || s == 'Z' || s == 'X'
}

// residentPIDs returns the shelf's only set's children.
func residentPIDs(t *testing.T) []int {
	t.Helper()
	sets := dist.ResidentPIDs()
	if len(sets) != 1 {
		t.Fatalf("%d shelved sets, want 1", len(sets))
	}
	return sets[0]
}

// TestDistResidentReuse: successive runs with varied per-run parameters
// all take the one set the first run launched. Each must return the
// oracle result and pass Run's post-run quiescence check, the children
// must be the same processes throughout, and none may be left a zombie.
func TestDistResidentReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	grains := []uint64{0, 4, core.GrainAuto}
	batches := []int{0, 1, 3, 8}
	var pids []int
	var deepest uint64
	for i := 0; i < 50; i++ {
		cfg := dist.DefaultConfig(2)
		cfg.Seed = uint64(i + 1)
		cfg.Grain = grains[i%len(grains)]
		cfg.StealBatch = batches[i%len(batches)]
		spec := workloads.Fib(14+uint64(i%4), 20)
		if i%2 == 1 {
			spec = workloads.UTS(uint64(i), 6, workloads.DefaultUTSB0, 20)
		}
		res := runSpec(t, cfg, spec)
		deepest = max(deepest, res.TotalStats().MaxStackUsed)
		got := residentPIDs(t)
		if i == 0 {
			pids = got
			continue
		}
		if !slices.Equal(got, pids) {
			t.Fatalf("run %d: resident children %v, want the first run's %v", i, got, pids)
		}
	}
	// One long leaf on the reused set. Its stack high-water is one
	// frame, not the deepest earlier run's: per-run counters start from
	// zero. And rank 1 runs its scheduler loop while the leaf burns —
	// if the last run's done word survived, it would stop at once.
	res := runSpec(t, dist.DefaultConfig(2), workloads.Fib(1, 30_000_000))
	if got := res.TotalStats().MaxStackUsed; got >= deepest {
		t.Fatalf("one-frame run reports a %d-byte stack high-water, the deepest earlier run's was %d", got, deepest)
	}
	if st := res.PerWorker[1]; st.StealAttempts+st.IdleSleeps == 0 {
		t.Fatalf("rank 1 never ran its loop during a 30M-cycle leaf: %+v", st)
	}
	for _, pid := range pids {
		if s := procState(pid); s == 0 || s == 'Z' {
			t.Fatalf("resident child %d in state %q after the runs", pid, s)
		}
	}
	if _, z := children(t, os.Getpid()); len(z) > 0 {
		t.Fatalf("zombie children %v", z)
	}
	dist.DropResident()
	for _, pid := range pids {
		if s := procState(pid); s != 0 {
			t.Fatalf("discarded child %d still in /proc, state %q", pid, s)
		}
	}
}

// TestDistResidentChildDiesBetweenRuns: a shelved child SIGKILLed (and
// reaped) between runs fails nothing — the next Run finds the set dead,
// discards it and launches a fresh one.
func TestDistResidentChildDiesBetweenRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	spec := workloads.Fib(16, 10)
	runSpec(t, dist.DefaultConfig(3), spec)
	before := residentPIDs(t)
	if err := syscall.Kill(before[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if !dist.AwaitReaped(before[0], 5*time.Second) {
		t.Fatalf("killed child %d not reaped", before[0])
	}
	runSpec(t, dist.DefaultConfig(3), spec)
	after := residentPIDs(t)
	for _, pid := range after {
		if slices.Contains(before, pid) {
			t.Fatalf("run after the kill used child %d of the dead set %v", pid, before)
		}
	}
	for _, pid := range before {
		if s := procState(pid); s != 0 {
			t.Fatalf("child %d of the dead set still in /proc, state %q", pid, s)
		}
	}
	dist.DropResident()
}

// TestDistResidentFaultRunLaunchesFresh: a run with an active fault
// schedule neither takes a shelved set nor shelves its own, even when
// it succeeds.
func TestDistResidentFaultRunLaunchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	runSpec(t, dist.DefaultConfig(2), workloads.Fib(16, 10))
	before := residentPIDs(t)
	cfg := dist.DefaultConfig(2)
	cfg.Fault = fault.Config{StealClaimFailProb: 0.1}
	runSpec(t, cfg, workloads.Fib(16, 10))
	if after := residentPIDs(t); !slices.Equal(after, before) {
		t.Fatalf("shelf holds %v after a faulted run, want the clean run's set %v alone", after, before)
	}
	dist.DropResident()
}

// TestDistResidentObsRingsPerRun: a reused set's event rings hold the
// current run alone. Each child records exactly one start span per run,
// so a second run on the same set must export one per child, not two.
func TestDistResidentObsRingsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	cfg := dist.DefaultConfig(3)
	cfg.Obs = true
	runSpec(t, cfg, workloads.Fib(16, 10))
	before := residentPIDs(t)
	res := runSpec(t, cfg, workloads.Fib(16, 10))
	if after := residentPIDs(t); !slices.Equal(after, before) {
		t.Fatalf("second run did not reuse the set: %v, then %v", before, after)
	}
	for _, l := range res.Obs.Logs {
		hellos := 0
		for _, e := range l.Events {
			if e.Kind == obs.KCtlHello {
				hellos++
			}
		}
		if want := min(int(l.Rank), 1); hellos != want {
			t.Errorf("rank %d exported %d start spans for one run, want %d", l.Rank, hellos, want)
		}
	}
	dist.DropResident()
}

// TestDistResidentKilledSetNotShelved: a mid-run kill still reports a
// WorkerCrashError, and the set it broke is reaped, not shelved.
func TestDistResidentKilledSetNotShelved(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test skipped in -short mode")
	}
	dist.DropResident()
	cfg := dist.DefaultConfig(3)
	cfg.KillRanks = []int{1}
	cfg.KillAfter = 100 * time.Millisecond
	spec := workloads.Fib(30, 2000)
	_, err := dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	var crash *dist.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("error is %T (%v), want *dist.WorkerCrashError", err, err)
	}
	if sets := dist.ResidentPIDs(); len(sets) != 0 {
		t.Fatalf("a crashed run shelved its set: %v", sets)
	}
	if _, z := children(t, os.Getpid()); len(z) > 0 {
		t.Fatalf("zombie children %v", z)
	}
	// The next run of the same layout launches fresh and succeeds.
	runSpec(t, dist.DefaultConfig(3), workloads.Fib(16, 10))
	dist.DropResident()
}

// TestDistResidentChildrenExitWithCoordinator: a coordinator that exits
// with its set on the shelf takes the set with it. Its children read
// EOF on their control connections and are gone within a second, so
// none of them holds the caller's stderr pipe open.
func TestDistResidentChildrenExitWithCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coordinatorEnv+"=once")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // a pipe: Wait returns only once every writer closed it
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pids []int
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		pid, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("coordinator printed %q", sc.Text())
		}
		pids = append(pids, pid)
	}
	exited := time.Now() // stdout closed: the coordinator is exiting
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("coordinator: %v\n%s", err, stderr.String())
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("coordinator's stderr still open 5s after it exited: a worker outlived it")
	}
	if len(pids) != 2 {
		t.Fatalf("coordinator reported %d children, want 2", len(pids))
	}
	for _, pid := range pids {
		for !ended(pid) {
			if time.Since(exited) > time.Second {
				t.Fatalf("child %d of an exited coordinator still running after 1s", pid)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDistResidentChildrenExitWithKilledCoordinator: children notice a
// coordinator SIGKILLed mid-run (EOF on the control socket they watch
// while running) and are gone within a second.
func TestDistResidentChildrenExitWithKilledCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coordinatorEnv+"=spin")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(out)
	if !sc.Scan() || sc.Text() != "running" {
		t.Fatalf("coordinator did not start its run (read %q)", sc.Text())
	}
	kids, _ := children(t, cmd.Process.Pid)
	if len(kids) != 2 {
		t.Fatalf("coordinator has children %v, want 2", kids)
	}
	// Rank 0 is running; give the children a moment to take the start
	// too, so the kill lands mid-run rather than in their handshake
	// (where a lost coordinator costs the redial budget instead).
	time.Sleep(100 * time.Millisecond)
	cmd.Process.Kill()
	cmd.Wait()
	killed := time.Now()
	for _, pid := range kids {
		for !ended(pid) {
			if time.Since(killed) > time.Second {
				t.Fatalf("child %d of a killed coordinator still running after 1s", pid)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// children lists pid's child processes: those still running, and the
// zombies — exited, not yet reaped.
func children(t *testing.T, pid int) (live, zombies []int) {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		b, err := os.ReadFile(st)
		if err != nil {
			continue
		}
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(b[i+1:]))
		if len(f) < 2 || f[1] != strconv.Itoa(pid) {
			continue
		}
		child, _ := strconv.Atoi(strings.Split(st, "/")[2])
		if f[0] == "Z" {
			zombies = append(zombies, child)
		} else {
			live = append(live, child)
		}
	}
	return live, zombies
}

var (
	leakChildFID = core.Register("dist_test.leakchild", func(e *core.Env) core.Status {
		e.ReturnU64(1)
		return core.Done
	})
	// leakRootFID spawns a child it never joins: the child's record is
	// still live when the root completes.
	leakRootFID = core.Register("dist_test.leakroot", func(e *core.Env) core.Status {
		if e.RP() == 0 && !e.Spawn(1, 0, leakChildFID, 8, func(*core.Env) {}) {
			return core.Unwound
		}
		e.ReturnU64(9)
		return core.Done
	})
)

// TestDistResidentDiscardOnFailedCheck: a run that completes but fails
// the post-run quiescence check (a second live record) still fails as
// before, its set is discarded, and the next run is right.
func TestDistResidentDiscardOnFailedCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	spec := workloads.Fib(16, 10)
	runSpec(t, dist.DefaultConfig(2), spec)
	before := residentPIDs(t)
	_, err := dist.Run(dist.DefaultConfig(2), leakRootFID, 8, nil)
	if err == nil || !strings.Contains(err.Error(), "records live after completion") {
		t.Fatalf("leaky root: err %v, want the live-records quiescence failure", err)
	}
	if sets := dist.ResidentPIDs(); len(sets) != 0 {
		t.Fatalf("a run that failed its quiescence check shelved its set: %v", sets)
	}
	for _, pid := range before {
		if s := procState(pid); s != 0 {
			t.Fatalf("child %d of the discarded set still in /proc, state %q", pid, s)
		}
	}
	runSpec(t, dist.DefaultConfig(2), spec)
	dist.DropResident()
}

// segmentUnlinkedFID inspects the coordinator's own mappings from inside
// the run (the root runs on rank 0, in the coordinator): the segment
// must be mapped from a file that no longer has a name. Root result 1 is
// a pass; 2 = no segment mapping found, 3 = the file is still linked.
var segmentUnlinkedFID = core.Register("dist_test.segmentunlinked", func(e *core.Env) core.Status {
	e.ReturnU64(segmentMappingState())
	return core.Done
})

func segmentMappingState() uint64 {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 2
	}
	found := false
	for _, line := range strings.Split(string(maps), "\n") {
		if !strings.Contains(line, "uniaddr-dist-") {
			continue
		}
		found = true
		if !strings.HasSuffix(line, " (deleted)") {
			return 3
		}
	}
	if !found {
		return 2
	}
	return 1
}

// TestDistResidentSegmentUnlinked: the segment file is unlinked once
// every rank has mapped it, so nothing of it is left on disk while a
// run proceeds, or after a crash-probe run — a coordinator killed at
// any point past the hellos leaks no segment.
func TestDistResidentSegmentUnlinked(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dist.DropResident()
	res, err := dist.Run(dist.DefaultConfig(2), segmentUnlinkedFID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root != 1 {
		t.Fatalf("segment mapping state %d during the run, want 1 (mapped, unlinked)", res.Root)
	}
	dist.DropResident()

	// The crash probe: collect every segment path this process maps
	// while the run proceeds; none may exist once it returns.
	cfg := dist.DefaultConfig(3)
	cfg.KillRanks = []int{1}
	cfg.KillAfter = 100 * time.Millisecond
	spec := workloads.Fib(30, 2000)
	paths := map[string]bool{}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			maps, _ := os.ReadFile("/proc/self/maps")
			for _, line := range strings.Split(string(maps), "\n") {
				if i := strings.Index(line, "/"); i >= 0 && strings.Contains(line, "uniaddr-dist-") {
					paths[strings.TrimSuffix(line[i:], " (deleted)")] = true
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	_, err = dist.Run(cfg, spec.Fid, spec.Locals, spec.Init)
	close(stop)
	<-polled
	var crash *dist.WorkerCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crash probe: error is %T (%v), want *dist.WorkerCrashError", err, err)
	}
	if len(paths) == 0 {
		t.Fatal("never saw the crash probe's segment mapped")
	}
	for p := range paths {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("segment file %s left behind by the crash probe (stat: %v)", p, err)
		}
	}
}
