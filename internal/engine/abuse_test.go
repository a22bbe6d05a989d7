package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dswp/internal/testutil"
)

// The client-abuse suite: hostile or broken HTTP clients — oversized
// bodies, slow-loris header dribble, mid-body disconnects, walkaways
// mid-run — must never wedge a worker, leak a goroutine, or leave
// in-flight accounting nonzero. Each test ends by proving the engine
// still serves a clean request.

// settleInFlight polls until both the request counter and the byte
// accounting return to zero — abuse must not strand either.
func settleInFlight(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := e.Metrics().Snapshot()
		if s.InFlight == 0 && s.InFlightBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never settled: in-flight=%d bytes=%d",
				s.InFlight, s.InFlightBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func serveClean(t *testing.T, srv *httptest.Server) {
	t.Helper()
	resp, body := postRun(t, srv, `{"workload":"list-traversal","n":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request after abuse: %d: %s", resp.StatusCode, body)
	}
}

func TestAbuseOversizedBody(t *testing.T) {
	testutil.VerifyNone(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	e := New(Options{Workers: 1, MaxBodyBytes: 256})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	// A syntactically valid request whose body blows the limit while the
	// decoder is still reading.
	big := `{"workload":"` + strings.Repeat("a", 4096) + `"}`
	resp, body := postRun(t, srv, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d: %s", resp.StatusCode, body)
	}
	var eb struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "body-too-large" {
		t.Fatalf("oversized body class: %s", body)
	}
	if n := e.Metrics().Snapshot().BodyTooLarge; n != 1 {
		t.Fatalf("body-too-large counter = %d, want 1", n)
	}
	settleInFlight(t, e)
	serveClean(t, srv)
}

func TestAbuseSlowLoris(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	srv := httptest.NewUnstartedServer(NewMux(e))
	// The production dswpd server sets the same knob (-read-header-timeout).
	srv.Config.ReadHeaderTimeout = 150 * time.Millisecond
	srv.Start()
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble a partial request line and then stall, the loris way.
	if _, err := conn.Write([]byte("POST /run HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must cut the connection once the header timeout lapses —
	// not hold a goroutine hostage waiting for the rest.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a slow-loris connection alive past the header timeout")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the slow-loris connection")
	}
	// The request never reached admission.
	if n := e.Metrics().Snapshot().InFlight; n != 0 {
		t.Fatalf("slow loris became in-flight: %d", n)
	}
	serveClean(t, srv)
}

func TestAbuseMidBodyDisconnect(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Promise 100 bytes, deliver 10, hang up.
	fmt.Fprintf(conn, "POST /run HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n")
	conn.Write([]byte(`{"workload`))
	conn.Close()

	settleInFlight(t, e)
	serveClean(t, srv)
}

func TestAbuseClientWalksAwayMidRun(t *testing.T) {
	testutil.VerifyNone(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	// A stall-stretched run takes seconds; the client abandons it after
	// 50ms. The handler's request context must cancel the run — the
	// worker comes back, accounting zeroes, and nothing leaks.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/run",
		strings.NewReader(`{"workload":"list-traversal","n":4096,"inject_stall_us":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("abandoned request returned %d", resp.StatusCode)
	}
	settleInFlight(t, e)
	serveClean(t, srv)
}

// TestAbuseResetMidResponse covers the opposite direction: the server
// aborts the connection mid-response (the armed write-response site —
// the shape of a peer dying while we write). The engine side must stay
// consistent; the next request on a fresh connection serves.
func TestAbuseResetMidResponse(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"workload":"list-traversal","n":64}`
	fmt.Fprintf(conn, "POST /run HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	// Read just the status line, then slam the connection shut while the
	// server may still be flushing the JSON body.
	br := bufio.NewReader(conn)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading status line: %v", err)
	}
	conn.Close()

	settleInFlight(t, e)
	serveClean(t, srv)
}
