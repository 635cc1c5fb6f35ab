package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rcnvm/internal/stats"
)

// maxLineBytes bounds one TCP protocol line and one HTTP /query body.
const maxLineBytes = 1 << 20

// Handler answers one request of a session. A non-nil release is called
// once the response has been written, so the owner can hold state (the
// server's shutdown drain) open across delivery.
type Handler func(req *Request) (resp *Response, release func())

// Frontend is the wire front end shared by a serving node and the cluster
// router: listeners, HTTP servers and open TCP connections, the NDJSON
// session loop, POST /query and GET /healthz, and teardown. The owner
// supplies a session opener, called per TCP connection and per HTTP /query
// request, and its own HTTP routes. Session accounting lands in the
// owner's stats.Set as <prefix>.sessions_opened, .sessions_active (a
// gauge), .bad_requests, .encode_errors and .panics.
type Frontend struct {
	open   func() (Handler, func())
	routes func(*http.ServeMux)
	met    *stats.Set
	log    *slog.Logger

	opened, active, badRequests, encodeErrors, panics string // series names

	mu        sync.Mutex
	listeners []net.Listener // TCP only; HTTP listeners belong to https
	https     []*http.Server
	conns     map[net.Conn]struct{}
	stopped   bool
	accepting sync.WaitGroup // accept and HTTP serve loops
	sessionID atomic.Uint64
}

// NewFrontend creates a front end. open starts one session and returns its
// handler plus a close func (nil when there is nothing to close); routes,
// when non-nil, registers the owner's HTTP routes. logger, when non-nil,
// gets one line per closed TCP session and per undeliverable response.
func NewFrontend(prefix string, met *stats.Set, logger *slog.Logger,
	open func() (Handler, func()), routes func(*http.ServeMux)) *Frontend {
	return &Frontend{
		open: open, routes: routes, met: met, log: logger,
		opened:       prefix + ".sessions_opened",
		active:       prefix + ".sessions_active",
		badRequests:  prefix + ".bad_requests",
		encodeErrors: prefix + ".encode_errors",
		panics:       prefix + ".panics",
		conns:        make(map[net.Conn]struct{}),
	}
}

// ListenTCP starts the newline-delimited-JSON front end on addr
// (e.g. "127.0.0.1:0") and returns the bound address.
func (f *Frontend) ListenTCP(addr string) (net.Addr, error) { return f.listen(addr, nil) }

// ListenHTTP starts the HTTP front end on addr and returns the bound
// address: POST /query, GET /healthz and the owner's routes.
func (f *Frontend) ListenHTTP(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", f.handleQuery)
	// /healthz is liveness only: the process is up and can answer HTTP.
	// Readiness (safe to route queries here) is the owner's /readyz.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if f.routes != nil {
		f.routes(mux)
	}
	return f.listen(addr, &http.Server{Handler: mux})
}

// listen binds addr and serves it: the NDJSON session loop when hs is nil,
// else hs.
func (f *Frontend) listen(addr string, hs *http.Server) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		ln.Close()
		return nil, ErrShuttingDown
	}
	f.accepting.Add(1)
	if hs != nil {
		f.https = append(f.https, hs)
		go func() {
			defer f.accepting.Done()
			hs.Serve(ln)
		}()
	} else {
		f.listeners = append(f.listeners, ln)
		go f.acceptLoop(ln)
	}
	return ln.Addr(), nil
}

func (f *Frontend) acceptLoop(ln net.Listener) {
	defer f.accepting.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.stopped {
			f.mu.Unlock()
			c.Close()
			return
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		go f.serveConn(c)
	}
}

// serveConn is one session: requests on a connection run sequentially and
// their responses come back in order.
func (f *Frontend) serveConn(c net.Conn) {
	id := f.sessionID.Add(1)
	opened := time.Now()
	var statements, errCount int64
	f.met.Inc(f.opened)
	f.met.Add(f.active, 1)
	serve, closeSession := f.open()
	defer func() {
		// A panic anywhere in the session loop kills only this session,
		// never the process.
		if r := recover(); r != nil {
			f.met.Inc(f.panics)
		}
		if closeSession != nil {
			closeSession()
		}
		f.met.Add(f.active, -1)
		c.Close()
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		if f.log != nil {
			f.log.Info("session closed", "session", id, "remote", c.RemoteAddr().String(),
				"duration", time.Since(opened), "statements", statements, "errors", errCount)
		}
	}()

	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, maxLineBytes), maxLineBytes)
	enc := json.NewEncoder(c)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		resp, release, decoded := f.answer(line, serve)
		if decoded {
			statements++
		}
		if resp.Error != nil {
			errCount++
		}
		err := enc.Encode(resp)
		if release != nil {
			release()
		}
		if err != nil {
			// Computed but never delivered (client hung up, or the
			// connection broke mid-write): a silent drop here would look
			// like a slow query to the operator.
			f.encodeError(id, err)
			return
		}
	}
}

// answer serves one protocol line: an undecodable line is answered
// bad_request here (decoded is false), a decoded request goes to serve.
func (f *Frontend) answer(line []byte, serve Handler) (resp *Response, release func(), decoded bool) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		f.met.Inc(f.badRequests)
		return errResponse(0, CodeBadRequest, err.Error()), nil, false
	}
	resp, release = serve(&req)
	return resp, release, true
}

// handleQuery serves POST /query on a session of its own.
func (f *Frontend) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	defer func() {
		// net/http would recover a handler panic itself, but by aborting
		// the response; recover here so the client still gets a typed
		// internal_error payload and the metric fires.
		if rec := recover(); rec != nil {
			f.met.Inc(f.panics)
			f.WriteJSON(w, http.StatusInternalServerError,
				errResponse(req.ID, CodeInternal, fmt.Sprintf("internal error: %v", rec)))
		}
	}()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLineBytes)).Decode(&req); err != nil {
		f.met.Inc(f.badRequests)
		f.WriteJSON(w, http.StatusBadRequest, errResponse(0, CodeBadRequest, err.Error()))
		return
	}
	serve, closeSession := f.open()
	if closeSession != nil {
		defer closeSession()
	}
	resp, release := serve(&req)
	status := http.StatusOK
	if resp.Error != nil {
		status = httpStatus(resp.Error.Code)
	}
	f.WriteJSON(w, status, resp)
	if release != nil {
		release()
	}
}

// httpStatus maps a wire error code to its HTTP /query status.
func httpStatus(code string) int {
	switch code {
	case CodeOverloaded, CodeShutdown, CodeUnavailable, CodePrimaryDown:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeMemory, CodeInternal, CodeUnknownState:
		return http.StatusInternalServerError
	case CodeReadOnly:
		return http.StatusForbidden
	}
	return http.StatusBadRequest
}

// WriteJSON writes one JSON response body. An encode failure (typically
// the client hung up mid-response) cannot be reported to the peer, so it
// is counted and logged instead of dropped silently.
func (f *Frontend) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.encodeError(0, err)
	}
}

// encodeError records one undeliverable response.
func (f *Frontend) encodeError(session uint64, err error) {
	f.met.Inc(f.encodeErrors)
	if f.log != nil {
		f.log.Warn("response encode failed", "session", session, "error", err)
	}
}

// Stop stops accepting: TCP listeners close and a connection still racing
// through Accept is refused, while HTTP serves on until Shutdown or Abort.
// It reports whether this call did the stop.
func (f *Frontend) Stop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return false
	}
	f.stopped = true
	for _, ln := range f.listeners {
		ln.Close()
	}
	return true
}

// Shutdown tears down gracefully: the HTTP servers finish in-flight
// requests (until ctx expires), then open TCP sessions close.
func (f *Frontend) Shutdown(ctx context.Context) {
	f.close(func(hs *http.Server) error { return hs.Shutdown(ctx) })
}

// Abort tears down at once: HTTP servers and open TCP sessions close with
// nothing in flight delivered.
func (f *Frontend) Abort() { f.close((*http.Server).Close) }

// close is the teardown shared by Shutdown and Abort: stop accepting, end
// the HTTP servers with stopHTTP, close open connections, then wait for
// the accept loops.
func (f *Frontend) close(stopHTTP func(*http.Server) error) {
	f.Stop()
	f.mu.Lock()
	https := f.https
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, hs := range https {
		stopHTTP(hs)
	}
	for _, c := range conns {
		c.Close()
	}
	f.accepting.Wait()
}
