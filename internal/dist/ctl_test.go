package dist

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"
)

// TestCtlRefusedDialEndsConversation: a child whose coordinator is gone
// — nothing listens on the set's abstract socket, so its dials are
// refused — ends the handshake at its first dial and a bye at its first
// redial, instead of backing off through ctlMaxAttempts dials (~0.8 s).
func TestCtlRefusedDialEndsConversation(t *testing.T) {
	spec := childSpec{Rank: 1, SockPath: fmt.Sprintf("@uniaddr-dist-test-nolistener-%d", os.Getpid())}
	rng := rand.New(rand.NewSource(1))
	const bound = 50 * time.Millisecond

	t0 := time.Now()
	if _, _, _, err := ctlHandshake(spec, nil, "", rng); err == nil || !coordinatorGone(err) {
		t.Fatalf("handshake against no listener: %v, want a refused dial", err)
	}
	if el := time.Since(t0); el > bound {
		t.Errorf("handshake against no listener took %v, want <= %v", el, bound)
	}

	// A bye whose connection broke: the send fails, the redial is refused.
	mine, theirs := net.Pipe()
	theirs.Close()
	c := &ctlConn{conn: mine, enc: json.NewEncoder(mine), dec: json.NewDecoder(mine)}
	t0 = time.Now()
	if _, err := sendBye(spec, nil, c, byeMsg{Rank: 1}, rng, nil); err == nil || !coordinatorGone(err) {
		t.Fatalf("bye against no listener: %v, want a refused dial", err)
	}
	if el := time.Since(t0); el > bound {
		t.Errorf("bye against no listener took %v, want <= %v", el, bound)
	}
}
