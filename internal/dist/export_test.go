package dist

import "time"

// ResidentPIDs returns the child PIDs of every shelved set, oldest set
// first.
func ResidentPIDs() [][]int {
	resident.mu.Lock()
	defer resident.mu.Unlock()
	out := make([][]int, 0, len(resident.sets))
	for _, s := range resident.sets {
		pids := make([]int, len(s.children))
		for i, c := range s.children {
			pids[i] = c.cmd.Process.Pid
		}
		out = append(out, pids)
	}
	return out
}

// DropResident discards every shelved set; it returns once their
// processes are reaped.
func DropResident() {
	resident.mu.Lock()
	sets := resident.sets
	resident.sets = nil
	resident.mu.Unlock()
	for _, s := range sets {
		s.discard()
	}
}

// AwaitReaped waits up to timeout for the shelved child pid to have
// been reaped by its set, and reports whether it was.
func AwaitReaped(pid int, timeout time.Duration) bool {
	var exited chan struct{}
	resident.mu.Lock()
	for _, s := range resident.sets {
		for _, c := range s.children {
			if c.cmd.Process.Pid == pid {
				exited = c.exited
			}
		}
	}
	resident.mu.Unlock()
	if exited == nil {
		return false
	}
	select {
	case <-exited:
		return true
	case <-time.After(timeout):
		return false
	}
}
