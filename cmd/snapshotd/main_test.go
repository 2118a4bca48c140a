package main

import (
	"bufio"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"partialsnapshot/internal/server"
	"partialsnapshot/internal/snapshot"
)

// TestSlowBodyIsCutOff sends a request whose body trickles in a byte at a
// time and would take far longer than readTimeout to arrive: the daemon's
// server must give up on it once readTimeout has passed, answer 400 and
// close the connection, while serving other clients meanwhile.
func TestSlowBodyIsCutOff(t *testing.T) {
	obj, err := snapshot.New[int64](snapshot.ImplLockFree, 8)
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("127.0.0.1:0", server.New(obj, snapshot.ImplLockFree, server.Config{}).Handler())
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		<-served
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const body = `{"ids":[0],"vals":[1]}`
	start := time.Now()
	if _, err := conn.Write([]byte("POST /update HTTP/1.1\r\nHost: snapshotd\r\nContent-Type: application/json\r\n" +
		"Content-Length: 1000\r\n\r\n" + body[:1])); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		tick := time.NewTicker(readTimeout / 20)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-trickled
	}()

	// Another client is served while the slow one holds its connection.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := conn.SetReadDeadline(time.Now().Add(readTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to the trickling client: %v", err)
	}
	elapsed := time.Since(start)
	if !strings.Contains(status, " 400 ") {
		t.Fatalf("trickling client got %q, want a 400", status)
	}
	if elapsed < readTimeout-time.Second || elapsed > readTimeout+5*time.Second {
		t.Fatalf("trickling client cut off after %v, want about %v", elapsed, readTimeout)
	}
}

// TestHTTPServerTimeouts pins the timeouts the daemon's server is built
// with; TestSlowBodyIsCutOff exercises only the read timeout.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadTimeout != readTimeout || hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts read %v write %v idle %v", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
}
