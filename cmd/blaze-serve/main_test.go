package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/server"
	"blaze/internal/session"
)

// serving is one blaze-serve under test: the real flag parse, set-up and
// handler, with the root proc parked where httpServe would be listening.
type serving struct {
	o   *serveFlags
	env *cli.Env
	srv *server.Server
	h   http.Handler
}

// serve starts blaze-serve as main would for the given command line (the
// graph files are appended; transpose adds the -in* flags) and drains it
// when the test ends.
func serve(t *testing.T, transpose bool, args ...string) *serving {
	t.Helper()
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 8, V: 1024, E: 8000}
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteFiles(c, c.Transpose(), base); err != nil {
		t.Fatal(err)
	}
	if transpose {
		args = append(args, "-inIndexFilename", base+".tgr.index", "-inAdjFilenames", base+".tgr.adj.0")
	}
	os.Args = append(append([]string{"blaze-serve", "-computeWorkers", "2"}, args...), base+".gr.index", base+".gr.adj.0")
	s := &serving{o: parseFlags()}
	var err error
	if s.env, err = cli.Setup(s.o.Options); err != nil {
		t.Fatal(err)
	}
	if s.srv, err = newServer(s.env, s.o); err != nil {
		t.Fatal(err)
	}
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.env.Ctx.Run("main", func(p exec.Proc) {
			s.srv.Start()
			close(started)
			<-stop
			s.srv.Drain(p)
		})
	}()
	<-started
	t.Cleanup(func() {
		close(stop)
		<-done
		s.env.Close()
	})
	s.h = newHandler(s.env, s.o, s.srv)
	return s
}

// do sends one request to the handler and decodes a JSON reply if there is
// one.
func (s *serving) do(method, path, body string) (int, queryResponse, string) {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	var resp queryResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp) // plain-text replies leave resp zero
	return w.Code, resp, w.Body.String()
}

// TestFlagsAreTheQueryToolsPlusTen: blaze-serve parses the query tools' flag
// set — flags its private set never had included — with their defaults (the
// device retry policy among them), re-defaulting only the page cache.
func TestFlagsAreTheQueryToolsPlusTen(t *testing.T) {
	s := serve(t, false, "-binSpace", "8", "-converge-tol", "0.25", "-faultSeed", "3", "-slots", "2")
	o := s.o
	if o.BinSpaceMB != 8 || o.ConvergeTol != 0.25 || o.FaultSeed != 3 || o.Slots != 2 {
		t.Errorf("parsed -binSpace %d -converge-tol %g -faultSeed %d -slots %d", o.BinSpaceMB, o.ConvergeTol, o.FaultSeed, o.Slots)
	}
	if o.PageCacheMB != 64 || !s.env.Cache.Enabled() {
		t.Errorf("-pageCache defaults to %d, want the server's 64", o.PageCacheMB)
	}
	if o.RetryMax != -1 || o.Concurrency != 1 || s.env.RO.BinCount != 1024 || o.Epsilon != 0.001 || o.MaxIters != 0 {
		t.Errorf("query-tool defaults not in force: %+v", *o.Options)
	}
	if got := s.env.Sys.(*algo.Blaze).Cfg.BinSpaceBytes; got != 8<<20 {
		t.Errorf("-binSpace 8 built an engine with %d bytes of bins", got)
	}
}

// TestQueryEndpoint: the status code of every way a POST /query can end
// that needs no contention — 200 for each catalogue query, 400 for requests
// that cannot be served as asked, 405 off POST — and the two GET endpoints.
func TestQueryEndpoint(t *testing.T) {
	s := serve(t, true)
	for _, q := range algo.Queries {
		code, resp, raw := s.do("POST", "/query", `{"query":"`+q.Name+`","start":1,"class":"batch"}`)
		if code != http.StatusOK || resp.Status != "ok" || resp.Query != q.Name || resp.Class != "batch" || resp.Summary == "" {
			t.Errorf("%s: %d %s", q.Name, code, raw)
		}
	}
	if _, resp, _ := s.do("POST", "/query", `{"query":"bfs","start":1}`); !strings.Contains(resp.Summary, "from 1 in") || resp.Class != "interactive" {
		t.Errorf("bfs digest %q, class %q", resp.Summary, resp.Class)
	}
	for name, body := range map[string]string{
		"unknown query":    `{"query":"sssp"}`,
		"bad JSON":         `{"query":`,
		"start past V":     `{"query":"bfs","start":1024}`,
		"unknown class":    `{"query":"bfs","class":"bulk"}`,
		"negative timeout": `{"query":"bfs","class":"batch","timeout_ms":-5}`,
	} {
		if code, resp, raw := s.do("POST", "/query", body); code != http.StatusBadRequest || resp.Status != "error" || resp.Error == "" {
			t.Errorf("%s: %d %s", name, code, raw)
		}
	}
	if code, _, _ := s.do("GET", "/query", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: %d", code)
	}
	if code, _, raw := s.do("GET", "/healthz", ""); code != http.StatusOK || raw != "ok\n" {
		t.Errorf("/healthz: %d %q", code, raw)
	}
	code, _, raw := s.do("GET", "/statsz", "")
	if code != http.StatusOK || !strings.Contains(raw, "slots=4") || !strings.Contains(raw, "page cache: hits=") {
		t.Errorf("/statsz: %d\n%s", code, raw)
	}

	// Without the transpose flags the two queries that need it are client
	// errors, not crashes; the other three are still served.
	fwd := serve(t, false)
	for _, q := range algo.Queries {
		want := http.StatusOK
		if q.Transpose {
			want = http.StatusBadRequest
		}
		if code, _, raw := fwd.do("POST", "/query", `{"query":"`+q.Name+`"}`); code != want {
			t.Errorf("%s without transpose: %d, want %d: %s", q.Name, code, want, raw)
		}
	}
}

// TestQueueFullAndDeadline: with the one slot held and the one queue place
// taken, a third request is shed with 503; the queued one, whose 1 ms
// deadline passes while it waits, is dropped with 504 once the slot frees.
func TestQueueFullAndDeadline(t *testing.T) {
	s := serve(t, false, "-slots", "1", "-queueDepth", "1")
	entered, release := make(chan struct{}), make(chan struct{})
	s.env.Ctx.Go("hold-slot", func(p exec.Proc) {
		err := s.srv.Submit(p, &server.Request{Name: "hold", Body: func(exec.Proc, *session.Query) error {
			close(entered)
			<-release
			return nil
		}})
		if err != nil {
			t.Error(err)
			close(entered)
		}
	})
	<-entered

	type reply struct {
		code int
		resp queryResponse
	}
	queued := make(chan reply)
	go func() {
		code, resp, _ := s.do("POST", "/query", `{"query":"spmv","timeout_ms":1}`)
		queued <- reply{code, resp}
	}()
	for s.srv.Queued() == 0 { // the handler submits from a proc of its own
		time.Sleep(time.Millisecond)
	}
	if code, resp, raw := s.do("POST", "/query", `{"query":"spmv"}`); code != http.StatusServiceUnavailable || resp.Status != "rejected" {
		t.Errorf("queue full: %d %s", code, raw)
	}
	time.Sleep(5 * time.Millisecond) // let the queued request's deadline pass
	close(release)
	if r := <-queued; r.code != http.StatusGatewayTimeout || r.resp.Status != "expired" {
		t.Errorf("expired in queue: %d %+v", r.code, r.resp)
	}
}

// TestBodyErrorIs500: a device that cannot be read fails the query body,
// which the endpoint reports as a server error, and keeps serving.
func TestBodyErrorIs500(t *testing.T) {
	s := serve(t, false, "-faultPermanentRate", "1", "-pageCache", "0")
	code, resp, raw := s.do("POST", "/query", `{"query":"bfs"}`)
	if code != http.StatusInternalServerError || resp.Status != "failed" || resp.Error == "" {
		t.Errorf("unreadable device: %d %s", code, raw)
	}
	if code, _, _ := s.do("GET", "/healthz", ""); code != http.StatusOK {
		t.Errorf("/healthz after a failed query: %d", code)
	}
}
