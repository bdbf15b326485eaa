// Command blaze-serve is the long-running query service over one resident
// graph: it loads the graph once, keeps the shared page cache and per-device
// IO schedulers warm across requests, and serves the algo.Queries catalogue
// through the admission-controlled front end in internal/server. Its flags
// are the query tools' (internal/cli: engine, devices, binning, -epsilon,
// -maxIters and -converge-tol for every request, faults, tracing) plus ten of
// its own; -pageCache defaults to 64 here.
//
// Real mode (default) runs an HTTP server:
//
//	blaze-serve -pageCache 256 -slots 4 -addr :8080 graph.gr.index graph.gr.adj.0
//
//	POST /query   {"query":"bfs","start":0,"class":"interactive","timeout_ms":500}
//	              → {"status":"ok","query":"bfs","latency_ms":12.3,"summary":"..."}
//	GET  /statsz  plain-text serving report: per-class p50/p99, goodput,
//	              reject rate, queue state, cache and scheduler counters
//	GET  /healthz liveness probe
//
// "query" is any catalogue name (bfs, pr, wcc, spmv, bc; wcc and bc need
// the transpose flags), "class" interactive (the default) or batch, and
// "timeout_ms" a deadline (0 = none). A request that cannot be served as
// asked answers 400, a full queue 503 immediately (load shedding, not
// queueing collapse), a deadline that passed in the queue 504, a failed
// query body 500; SIGINT/SIGTERM drains gracefully — admission stops,
// queued and in-flight queries finish, then the final report prints.
//
// Sim mode (-sim) replaces the HTTP front end with the seeded open-loop
// load generator (internal/loadgen) and prints the per-class latency
// report; the same seed reproduces the identical report, making tail
// latencies a deterministic experiment:
//
//	blaze-serve -sim -rate 2000 -requests 500 -process bursty -seed 7 \
//	    graph.gr.index graph.gr.adj.0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/loadgen"
	"blaze/internal/server"
	"blaze/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "blaze-serve: %v\n", err)
		os.Exit(1)
	}
}

// serveFlags is the query tools' flag set plus the server's own ten.
type serveFlags struct {
	*cli.Options
	Addr          string
	Slots         int
	QueueDepth    int
	Rate          float64
	Requests      int
	Process       string
	BurstFactor   float64
	BurstFrac     float64
	Seed          uint64
	LookupTimeout time.Duration
}

func parseFlags() *serveFlags {
	o := &serveFlags{}
	o.Options = cli.ParseFlags("blaze-serve", false, func(fs *flag.FlagSet) {
		// A resident graph is served warm: the shared cache is on unless
		// switched off.
		cache := fs.Lookup("pageCache")
		cache.DefValue = "64"
		_ = cache.Value.Set(cache.DefValue)
		fs.StringVar(&o.Addr, "addr", ":8080", "HTTP listen address (real mode)")
		fs.IntVar(&o.Slots, "slots", 4, "concurrent query slots (worker procs)")
		fs.IntVar(&o.QueueDepth, "queueDepth", 64, "admission queue bound; a full queue sheds with 503")
		fs.Float64Var(&o.Rate, "rate", 1000, "-sim offered load in requests per second of model time")
		fs.IntVar(&o.Requests, "requests", 500, "-sim arrival count")
		fs.StringVar(&o.Process, "process", "poisson", "-sim arrival process: poisson or bursty")
		fs.Float64Var(&o.BurstFactor, "burstFactor", 4, "-sim bursty peak-rate multiplier")
		fs.Float64Var(&o.BurstFrac, "burstFrac", 0.125, "-sim fraction of each cycle spent bursting")
		fs.Uint64Var(&o.Seed, "seed", 1, "-sim arrival-schedule seed")
		fs.DurationVar(&o.LookupTimeout, "interactiveTimeout", 0, "-sim deadline for interactive requests (0 = 20x serial service time)")
	})
	return o
}

func run() error {
	o := parseFlags()
	if o.Concurrency != 1 {
		return errors.New("-concurrency is the query tools' replica count; a server's concurrency is -slots")
	}
	env, err := cli.Setup(o.Options)
	if err != nil {
		return err
	}
	defer env.Close()
	srv, err := newServer(env, o)
	if err != nil {
		return err
	}
	serve := httpServe
	if o.Sim {
		serve = simRun
	}
	env.Ctx.Run("main", func(p exec.Proc) { err = serve(p, o, env, srv) })
	// The query tools' closing lines: device totals, faults, the cache, and
	// what -trace and -stageStats asked for.
	env.Report("blaze-serve", "")
	return err
}

// newServer builds the resident session (-slots queries of -engine over the
// loaded graph and the shared cache) and the admission front end over it.
func newServer(env *cli.Env, o *serveFlags) (*server.Server, error) {
	sess, err := session.New(env.Ctx, env.Out, env.In, session.Config{
		Engine:     o.Engine,
		Base:       env.RO,
		Cache:      env.Cache,
		Seed:       o.InterleaveSeed,
		MaxQueries: o.Slots,
	})
	if err != nil {
		return nil, err
	}
	return server.New(env.Ctx, sess, server.Config{Slots: o.Slots, QueueDepth: o.QueueDepth}), nil
}

// simRun drives the deterministic open-loop experiment: a 3:1 mix of
// interactive BFS lookups (deadlined) and batch SpMV scans against the
// warmed session.
func simRun(p exec.Proc, o *serveFlags, env *cli.Env, srv *server.Server) error {
	proc, err := loadgen.ParseProcess(o.Process)
	if err != nil {
		return err
	}
	bfsBody, err := queryBody(env, o, queryRequest{Query: "bfs", Start: uint32(o.StartNode)}, nil)
	if err != nil {
		return err
	}
	spmvBody, err := queryBody(env, o, queryRequest{Query: "spmv"}, nil)
	if err != nil {
		return err
	}

	// Warm the cache and measure the interactive latency floor to size the
	// default deadline. Warmups run serially so they fit any -slots value.
	start := p.Now()
	if _, err := srv.Session().Run(p, bfsBody); err != nil {
		return err
	}
	if _, err := srv.Session().Run(p, spmvBody); err != nil {
		return err
	}
	t0 := p.Now()
	if _, err := srv.Session().Run(p, bfsBody); err != nil {
		return err
	}
	bfsNs := p.Now() - t0
	timeoutNs := int64(o.LookupTimeout)
	if timeoutNs <= 0 {
		timeoutNs = 20 * bfsNs
	}

	srv.Start()
	rep, err := loadgen.Run(p, srv, loadgen.Config{
		RatePerSec:  o.Rate,
		Requests:    o.Requests,
		Process:     proc,
		BurstFactor: o.BurstFactor,
		BurstFrac:   o.BurstFrac,
		Seed:        o.Seed,
		Classes: []loadgen.Class{
			{Name: "bfs", Priority: server.Interactive, Weight: 3, TimeoutNs: timeoutNs, Body: bfsBody},
			{Name: "spmv", Priority: server.Batch, Weight: 1, Body: spmvBody},
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("open-loop %s arrivals at %.0f/s, %d requests, seed %d (interactive deadline %.3fms)\n\n",
		proc, o.Rate, o.Requests, o.Seed, float64(timeoutNs)/1e6)
	rep.Fprint(os.Stdout)
	fmt.Printf("\n%s", srv.StatszText(p.Now()-start))
	return nil
}

// queryRequest is the JSON body of POST /query.
type queryRequest struct {
	Query     string `json:"query"`
	Start     uint32 `json:"start"`
	Class     string `json:"class"`
	TimeoutMs int64  `json:"timeout_ms"`
}

// queryBody builds the session body for one request out of the query
// catalogue; summary (when non-nil) receives the answer's one-line digest.
// An error means the request cannot be served as asked (a client error).
func queryBody(env *cli.Env, o *serveFlags, req queryRequest, summary *string) (session.Body, error) {
	q, ok := algo.QueryByName(req.Query)
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown query %q", req.Query)
	case q.Transpose && env.In == nil:
		return nil, fmt.Errorf("query %q needs the transpose flags (-inIndexFilename, -inAdjFilenames)", req.Query)
	case req.Start >= env.Out.NumVertices():
		return nil, fmt.Errorf("start %d out of range (|V| = %d)", req.Start, env.Out.NumVertices())
	}
	return func(p exec.Proc, sq *session.Query) error {
		ans, err := q.Run(sq.Sys, p, env.Out, env.In, o.Args(req.Start))
		if summary != nil {
			*summary = ans.Summary
		}
		return err
	}, nil
}

// queryResponse is the JSON reply of POST /query.
type queryResponse struct {
	Status    string  `json:"status"`
	Query     string  `json:"query"`
	Class     string  `json:"class"`
	LatencyMs float64 `json:"latency_ms"`
	Summary   string  `json:"summary,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// newHandler returns the HTTP surface over a started server: /healthz,
// /statsz and POST /query.
func newHandler(env *cli.Env, o *serveFlags, srv *server.Server) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, srv.StatszText(int64(time.Since(start))))
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var qr queryRequest
		if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
			writeJSON(w, http.StatusBadRequest, queryResponse{Status: "error", Error: err.Error()})
			return
		}
		var summary string
		body, err := queryBody(env, o, qr, &summary)
		class := server.Interactive
		switch qr.Class {
		case "", "interactive":
		case "batch":
			class = server.Batch
		default:
			err = fmt.Errorf("unknown class %q: want interactive or batch", qr.Class)
		}
		if qr.TimeoutMs < 0 {
			err = fmt.Errorf("negative timeout_ms %d", qr.TimeoutMs)
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, queryResponse{Status: "error", Query: qr.Query, Error: err.Error()})
			return
		}
		// The HTTP goroutine is not an exec proc: spawn one to submit, and
		// wait for the outcome (or the rejection) on a channel. Under the
		// Real backend procs are goroutines, so this is cheap.
		outcome := make(chan server.Outcome, 1)
		reject := make(chan error, 1)
		env.Ctx.Go("http-query", func(hp exec.Proc) {
			req := &server.Request{
				Class:     class,
				Name:      qr.Query,
				Body:      body,
				TimeoutNs: qr.TimeoutMs * int64(time.Millisecond),
				OnDone:    func(out server.Outcome) { outcome <- out },
			}
			if err := srv.Submit(hp, req); err != nil {
				reject <- err
			}
		})
		select {
		case err := <-reject:
			writeJSON(w, http.StatusServiceUnavailable, queryResponse{
				Status: "rejected", Query: qr.Query, Class: class.String(), Error: err.Error()})
		case out := <-outcome:
			resp := queryResponse{
				Status:    out.Status.String(),
				Query:     qr.Query,
				Class:     class.String(),
				LatencyMs: float64(out.LatencyNs()) / 1e6,
				Summary:   summary,
			}
			code := http.StatusOK
			if out.Err != nil {
				resp.Error = out.Err.Error()
			}
			switch out.Status {
			case server.StatusExpired:
				code = http.StatusGatewayTimeout
			case server.StatusFailed:
				code = http.StatusInternalServerError
			}
			writeJSON(w, code, resp)
		}
	})
	return mux
}

// httpServe runs the HTTP front end on the root proc until SIGINT/SIGTERM,
// then drains and prints the final serving report.
func httpServe(p exec.Proc, o *serveFlags, env *cli.Env, srv *server.Server) error {
	srv.Start()
	serveStart := time.Now()
	hs := &http.Server{Addr: o.Addr, Handler: newHandler(env, o, srv)}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "blaze-serve: draining...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	fmt.Printf("blaze-serve: %s on %s (|V|=%d |E|=%d, %d slots, queue %d)\n",
		o.Engine, o.Addr, env.Out.NumVertices(), env.Out.NumEdges(), srv.Slots(), srv.QueueDepth())
	err := hs.ListenAndServe()
	srv.Drain(p)
	fmt.Printf("\nfinal report after %.1fs:\n", time.Since(serveStart).Seconds())
	srv.Report(int64(time.Since(serveStart))).Fprint(os.Stdout)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
