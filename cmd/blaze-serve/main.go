// Command blaze-serve is the long-running query service over one resident
// graph (ROADMAP item 1): it loads the graph once, keeps the shared page
// cache and per-device IO schedulers warm across requests, and serves
// queries through the admission-controlled front end in internal/server.
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
// A full queue answers 503 immediately (load shedding, not queueing
// collapse); SIGINT/SIGTERM drains gracefully — admission stops, queued
// and in-flight queries finish, then the final report prints.
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
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/loadgen"
	"blaze/internal/registry"
	"blaze/internal/server"
	"blaze/internal/session"
)

func main() {
	os.Exit(run())
}

type serveFlags struct {
	cli.Options
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
	fs := flag.NewFlagSet("blaze-serve", flag.ExitOnError)
	fs.StringVar(&o.Engine, "engine", "blaze", "execution engine: "+strings.Join(registry.SessionNames(), ", "))
	fs.IntVar(&o.ComputeWorkers, "computeWorkers", 16, "computation workers per query")
	fs.IntVar(&o.Devices, "devices", 1, "number of SSDs to stripe the graph over")
	fs.StringVar(&o.Profile, "profile", "optane", "device profile: optane, nand, znand, vnand")
	fs.IntVar(&o.PageCacheMB, "pageCache", 64, "shared page cache size in MB (0 = off)")
	fs.IntVar(&o.BinCount, "binCount", 1024, "number of online bins")
	fs.Float64Var(&o.BinningRatio, "binningRatio", 0.5, "scatter fraction of compute workers")
	fs.IntVar(&o.MaxIters, "maxIters", 20, "iteration cap for pr queries")
	fs.Float64Var(&o.Epsilon, "epsilon", 0.001, "PageRank-delta activation threshold")
	fs.StringVar(&o.InIndex, "inIndexFilename", "", "transpose graph index file (enables wcc)")
	fs.StringVar(&o.InAdj, "inAdjFilenames", "", "transpose graph adjacency file")
	fs.Uint64Var(&o.InterleaveSeed, "interleaveSeed", 1, "deterministic interleave seed for -sim runs")
	fs.BoolVar(&o.Sim, "sim", false, "run the seeded open-loop load generator under virtual time instead of serving HTTP")
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
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: blaze-serve [flags] <graph.gr.index> <graph.gr.adj.0>\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) != 2 {
		fs.Usage()
		os.Exit(2)
	}
	o.IndexPath, o.AdjPath = args[0], args[1]
	o.Concurrency = 1
	o.Coalesce, o.DRR = true, true
	o.RetryMax = -1
	return o
}

func run() int {
	o := parseFlags()
	env, err := cli.Setup(&o.Options)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blaze-serve: %v\n", err)
		return 1
	}
	defer env.Close()

	sess, err := session.New(env.Ctx, env.Out, env.In, session.Config{
		Engine:     o.Engine,
		Base:       env.RO,
		Cache:      env.Cache,
		Seed:       o.InterleaveSeed,
		MaxQueries: o.Slots,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "blaze-serve: %v\n", err)
		return 1
	}
	srv := server.New(env.Ctx, sess, server.Config{Slots: o.Slots, QueueDepth: o.QueueDepth})

	code := 0
	if o.Sim {
		env.Ctx.Run("main", func(p exec.Proc) {
			if err := simRun(p, o, env, srv); err != nil {
				fmt.Fprintf(os.Stderr, "blaze-serve: %v\n", err)
				code = 1
			}
		})
	} else {
		env.Ctx.Run("main", func(p exec.Proc) {
			if err := httpServe(p, o, env, srv); err != nil {
				fmt.Fprintf(os.Stderr, "blaze-serve: %v\n", err)
				code = 1
			}
		})
	}
	return code
}

// simRun drives the deterministic open-loop experiment: a 3:1 mix of
// interactive BFS lookups (deadlined) and batch SpMV scans against the
// warmed session.
func simRun(p exec.Proc, o *serveFlags, env *cli.Env, srv *server.Server) error {
	proc, err := loadgen.ParseProcess(o.Process)
	if err != nil {
		return err
	}
	bfsBody := queryBody(env, o, queryRequest{Query: "bfs", Start: uint32(o.StartNode)}, nil)
	spmvBody := queryBody(env, o, queryRequest{Query: "spmv"}, nil)

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

// queryBody builds the session body for one request kind; summary (when
// non-nil) receives a one-line result digest.
func queryBody(env *cli.Env, o *serveFlags, req queryRequest, summary *string) session.Body {
	digest := func(s string) {
		if summary != nil {
			*summary = s
		}
	}
	switch req.Query {
	case "bfs":
		return func(p exec.Proc, q *session.Query) error {
			dist, err := algo.BFS(q.Sys, p, env.Out, req.Start)
			if err != nil {
				return err
			}
			reached := 0
			for _, d := range dist {
				if d >= 0 {
					reached++
				}
			}
			digest(fmt.Sprintf("bfs from %d reached %d of %d vertices", req.Start, reached, len(dist)))
			return nil
		}
	case "pr":
		return func(p exec.Proc, q *session.Query) error {
			ranks, err := algo.PageRank(q.Sys, p, env.Out, o.Epsilon, o.MaxIters)
			if err != nil {
				return err
			}
			var max float64
			var arg int
			for i, r := range ranks {
				if r > max {
					max, arg = r, i
				}
			}
			digest(fmt.Sprintf("pagerank top vertex %d rank %.3g", arg, max))
			return nil
		}
	case "spmv":
		return func(p exec.Proc, q *session.Query) error {
			x := make([]float64, env.Out.NumVertices())
			for i := range x {
				x[i] = 1
			}
			y, err := algo.SpMV(q.Sys, p, env.Out, x)
			if err != nil {
				return err
			}
			var sum float64
			for _, v := range y {
				sum += v
			}
			digest(fmt.Sprintf("spmv sum %.6g over %d vertices", sum, len(y)))
			return nil
		}
	case "wcc":
		if env.In == nil {
			return nil
		}
		return func(p exec.Proc, q *session.Query) error {
			comp, err := algo.WCC(q.Sys, p, env.Out, env.In)
			if err != nil {
				return err
			}
			seen := map[uint32]struct{}{}
			for _, c := range comp {
				seen[c] = struct{}{}
			}
			digest(fmt.Sprintf("wcc found %d components", len(seen)))
			return nil
		}
	}
	return nil
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

// httpServe runs the HTTP front end on the root proc until SIGINT/SIGTERM,
// then drains and prints the final serving report.
func httpServe(p exec.Proc, o *serveFlags, env *cli.Env, srv *server.Server) error {
	srv.Start()
	serveStart := time.Now()

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, srv.StatszText(int64(time.Since(serveStart))))
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
		class := server.Interactive
		if qr.Class == "batch" {
			class = server.Batch
		}
		var summary string
		body := queryBody(env, o, qr, &summary)
		if body == nil {
			writeJSON(w, http.StatusBadRequest, queryResponse{Status: "error", Query: qr.Query,
				Error: fmt.Sprintf("unknown or unavailable query %q (wcc needs the transpose flags)", qr.Query)})
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

	hs := &http.Server{Addr: o.Addr, Handler: mux}
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
