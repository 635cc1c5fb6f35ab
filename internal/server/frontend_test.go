package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/stats"
)

// newPanickyFrontend serves a handler that panics on the statement
// "BOOM" and answers every other statement with its own text, over TCP and
// HTTP, with session accounting under "fe".
func newPanickyFrontend(t *testing.T) (fe *Frontend, met *stats.Set, tcp, httpAddr string) {
	t.Helper()
	met = stats.NewSet()
	serve := func(req *Request) (*Response, func()) {
		if req.Query == "BOOM" {
			panic("handler blew up")
		}
		return &Response{ID: req.ID, Message: req.Query}, nil
	}
	fe = NewFrontend("fe", met, nil, func() (Handler, func()) { return serve, nil }, nil)
	ta, err := fe.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ha, err := fe.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})
	return fe, met, ta.String(), ha.String()
}

// TestFrontendRecoversHandlerPanic: a handler panic over TCP ends only its
// own session (the next connection is served) and counts <prefix>.panics;
// over HTTP the client gets a 500 internal_error payload.
func TestFrontendRecoversHandlerPanic(t *testing.T) {
	_, met, tcp, httpAddr := newPanickyFrontend(t)

	c, err := Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r := mustQuery(t, c, "hello"); r.Message != "hello" {
		t.Fatalf("echo = %q", r.Message)
	}
	if _, err := c.Query("BOOM"); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("panicking statement: err = %v, want the session closed", err)
	}
	if got := met.Get("fe.panics"); got != 1 {
		t.Fatalf("fe.panics = %d, want 1", got)
	}
	c2, err := Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if r := mustQuery(t, c2, "still here"); r.Message != "still here" {
		t.Fatalf("echo after panic = %q", r.Message)
	}
	waitFor(t, "fe.sessions_active == 1", func() bool { return met.Get("fe.sessions_active") == 1 })
	if got := met.Get("fe.sessions_opened"); got != 2 {
		t.Fatalf("fe.sessions_opened = %d, want 2", got)
	}

	resp, err := http.Post("http://"+httpAddr+"/query", "application/json",
		strings.NewReader(`{"id":7,"query":"BOOM"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || out.Error == nil ||
		out.Error.Code != CodeInternal || out.ID != 7 {
		t.Fatalf("HTTP panic: status %d, response %+v", resp.StatusCode, out)
	}
	if got := met.Get("fe.panics"); got != 2 {
		t.Fatalf("fe.panics after HTTP = %d, want 2", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FuzzDecodeRequest drives arbitrary protocol lines through the front
// end's line decode and the server's request validation (the first step
// of doHeld). A line must never panic; a rejected one is answered
// bad_request; an accepted request is well-formed and survives a
// re-encode round trip unchanged.
func FuzzDecodeRequest(f *testing.F) {
	// One statement past the cap, each a single byte: a long seed slows
	// every mutation and minimization of it.
	big := make([]string, MaxBatchStatements+1)
	for i := range big {
		big[i] = "q"
	}
	bigLine, err := json.Marshal(Request{Batch: big})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"id":1,"query":"SELECT a FROM t WHERE id = 1"}`,
		`{"id":2,"batch":["INSERT INTO t VALUES (1)","SELECT COUNT(*) FROM t"]}`,
		string(bigLine),
		`{"batch":["SELECT a FROM t"],"timing":true}`,
		`{"query":`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}

	fe := NewFrontend("fuzz", stats.NewSet(), nil, nil, nil)
	f.Fuzz(func(t *testing.T, line []byte) {
		var accepted *Request
		serve := func(req *Request) (*Response, func()) {
			if msg := validateRequest(req); msg != "" {
				return errResponse(req.ID, CodeBadRequest, msg), nil
			}
			accepted = req
			return &Response{ID: req.ID}, nil
		}
		resp, _, _ := fe.answer(line, serve)
		if accepted == nil {
			if resp.Error == nil || resp.Error.Code != CodeBadRequest {
				t.Fatalf("rejected line %q answered %+v", line, resp)
			}
			return
		}
		req := *accepted
		if (req.Query != "") == (len(req.Batch) > 0) {
			t.Fatalf("accepted %q: query %q with %d batch statements", line, req.Query, len(req.Batch))
		}
		if len(req.Batch) > MaxBatchStatements {
			t.Fatalf("accepted a %d-statement batch", len(req.Batch))
		}
		if len(req.Batch) > 0 && (req.Timing || req.Trace) {
			t.Fatalf("accepted a batch with timing/trace: %q", line)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", req, err)
		}
		var again Request
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("decode re-encoded %s: %v", enc, err)
		}
		// An explicit empty batch ("batch":[]) is omitted on re-encode;
		// it means the same as no batch.
		if len(req.Batch) == 0 {
			req.Batch = nil
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, again)
		}
	})
}
