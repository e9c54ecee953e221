package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"

	"streamcover/internal/wire"
)

// TestWriteOnRetiredEpochReportsCause pins what a write reports on an
// epoch the reader has already retired. A busy rejection makes the reader
// record the loss and close the socket, so a round trip writing on the
// same epoch at that moment fails on the closed socket. The write must
// report the busy rejection, which Flush retries until the server
// recovers, not the closed-socket error, which Flush hands to its caller
// (TestCrashStormSoak saw this as an occasional failed Flush on a
// degraded session).
func TestWriteOnRetiredEpochReportsCause(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cn := &netConn{c: a, bw: bufio.NewWriterSize(a, 16), pending: make(chan waiter, 1), readerDone: make(chan struct{})}
	cn.lost(fmt.Errorf("%w (%w)", ErrSessionClosed, fmt.Errorf("client: %w: session degraded", ErrServerBusy)))
	a.Close()
	// The frame outgrows the 16-byte buffer, so the write reaches the socket.
	err := writeOn(cn, wire.TPing, make([]byte, 64), waiter{})
	if !errors.Is(err, ErrServerBusy) || !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("write on a busy-retired epoch returned %v, want the busy rejection", err)
	}
}
