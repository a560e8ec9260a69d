// Command gcd serves GraphCache over HTTP — the stand-in for the demo
// paper's cloud deployment with HTML dashboards. It loads (or generates) a
// dataset, builds Method M and the cache, and exposes:
//
//	GET  /                      HTML status page
//	GET  /api/stats             operational counters (Statistics Manager)
//	GET  /api/entries           cached queries and their utilities
//	POST /api/query             execute a query: {"graph": "<gSpan text>", "type": "subgraph"}
//	POST /api/query/batch       execute a batch: {"queries": [...], "workers": 8}
//	                            (?stream=1 streams NDJSON outcomes as they finish)
//	GET  /api/dataset/{id}      dataset graph as text, ?format=dot / ascii
//	POST /api/state/save        persist the cache to the -state file
//	GET  /debug/pprof/          live CPU/heap/goroutine profiles (only with -pprof)
//
// Requests are served concurrently: net/http spawns a goroutine per
// connection and the cache kernel processes the in-flight queries in
// parallel. SIGINT/SIGTERM trigger a graceful shutdown that drains
// in-flight requests before exiting.
//
// With -state <path> the cache is persistent: a snapshot at that path is
// restored at boot (a missing file is a cold start; a corrupt file is
// logged and skipped, the daemon starts with an empty cache) and the
// cache is saved back — atomically, via temp file + rename — on graceful
// shutdown or on demand through POST /api/state/save. A snapshot holds
// query patterns and their utilities, not answers: the restore re-runs
// each pattern on the dataset loaded at boot, so the cache starts warm
// after a dataset change too.
//
// Usage:
//
//	gcd -addr :8081 -dataset aids.txt -state aids.gcstate
//	gcd -addr :8081 -generate 1000 -policy hd -capacity 100
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/server"

	"math/rand"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal kills immediately
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed usage; that is a clean exit
		}
		log.Fatalf("gcd: %v", err)
	}
}

// run builds the cache and serves HTTP until ctx is cancelled, then drains
// in-flight requests and returns. It is main minus the process plumbing
// (signals, exit codes), so tests can boot the daemon on a random port,
// read the bound address off stdout and shut it down via the context.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gcd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8081", "listen address (the demo used :8081)")
		dsPath    = fs.String("dataset", "", "dataset file in the text codec; empty generates molecules")
		generate  = fs.Int("generate", 100, "generated dataset size when -dataset is empty")
		seed      = fs.Int64("seed", 2018, "generation seed")
		policy    = fs.String("policy", "hd", "replacement policy")
		capacity  = fs.Int("capacity", 50, "cache capacity (entries)")
		window    = fs.Int("window", 10, "admission window size")
		ggsxLen   = fs.Int("ggsx", 4, "GGSX path-feature length")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof profiling at /debug/pprof/ (off by default: profiles leak internals, enable only on trusted networks)")
		statePath = fs.String("state", "", "cache state file: restored at boot, saved on graceful shutdown and POST /api/state/save")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var dataset []*graph.Graph
	if *dsPath != "" {
		f, err := os.Open(*dsPath)
		if err != nil {
			return err
		}
		dataset, err = graph.ReadAll(f)
		f.Close()
		if err != nil {
			return err
		}
		dataset = gen.AssignIDs(dataset)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		dataset = gen.Molecules(rng, *generate, gen.DefaultMoleculeConfig())
	}
	if len(dataset) == 0 {
		return errors.New("empty dataset")
	}

	method := ftv.NewGGSXMethod(dataset, *ggsxLen)
	p, err := core.NewPolicy(*policy)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = *capacity
	cfg.Window = *window
	cfg.Policy = p
	cache, err := core.New(method, cfg)
	if err != nil {
		return err
	}

	// Restore persisted state before accepting traffic. A missing file is a
	// cold start; a corrupt file, a foreign one or one of an older version
	// must never take the daemon down, it just starts empty. Any dataset
	// restores: the patterns are re-run on this one, also after the saving
	// daemon removed or added graphs.
	if *statePath != "" {
		switch err := restoreState(cache, *statePath); {
		case err == nil:
			fmt.Fprintf(stdout, "gcd: restored %d cached queries from %s\n", cache.Len(), *statePath)
		case os.IsNotExist(err):
			fmt.Fprintf(stdout, "gcd: no state file at %s, starting cold\n", *statePath)
		default:
			fmt.Fprintf(stdout, "gcd: ignoring state file %s: %v\n", *statePath, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "gcd: %d dataset graphs, method %s, policy %s, cache %d/%d window\n",
		len(dataset), method.Name(), p.Name(), *capacity, *window)
	fmt.Fprintf(stdout, "gcd: listening on %s\n", ln.Addr())

	api := server.New(cache)
	if *statePath != "" {
		api.SetStateSaver(func() error { return saveState(cache, *statePath) })
	}
	var handler http.Handler = api
	if *pprofOn {
		// The profiling handlers are mounted on a wrapper mux rather than
		// the blank-import DefaultServeMux route, so they exist ONLY when
		// opted in and the API handler keeps owning every other path.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintln(stdout, "gcd: pprof profiling exposed at /debug/pprof/")
	}
	srv := newHTTPServer(handler)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "gcd: shutting down, draining in-flight requests")
		// ctx is already cancelled here; the drain deadline must outlive it
		// (TestDaemonShutdownDrainsOpenConnection).
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Save AFTER the drain: no in-flight mutations.
		if *statePath != "" {
			if err := saveState(cache, *statePath); err != nil {
				return fmt.Errorf("saving state: %w", err)
			}
			fmt.Fprintf(stdout, "gcd: saved %d cached queries to %s\n", cache.Len(), *statePath)
		}
		snap := cache.Stats()
		fmt.Fprintf(stdout, "gcd: served %d queries (%d exact hits), bye\n", snap.Queries, snap.ExactHits)
		return nil
	}
}

// A client may take this long to send its request headers and this long
// to send the whole request, body included, and a keep-alive connection
// may sit idle this long, before the server closes it: connections pile up
// exactly when a slow mutation stalls the queries in front of them, and
// without a bound a stalled or abandoned client — one that sends its
// headers and then trickles an 8 MB body, say — holds its goroutine and
// descriptor forever. net/http leaves the read deadline armed while the
// handler runs, so readTimeout also bounds a request end to end: a streamed
// batch still running when it passes has its context cancelled — a minute
// is far past any request the daemon serves (a 256-query batch takes tens
// of milliseconds).
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the daemon's http.Server for handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// restoreState restores the snapshot file at path (core.Cache.ReadState).
func restoreState(c *core.Cache, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.ReadState(f)
}

// saveState persists the cache atomically: serialize to a temp file in the
// destination directory, sync it to disk, then rename over the target — a
// crash mid-save, of the process or of the machine, leaves the previous
// snapshot intact, and a reader never sees a partial file. Concurrent
// saves (shutdown racing POST /api/state/save) are safe: each writes its
// own temp file and the cache serializes the snapshots.
func saveState(c *core.Cache, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gcstate-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.WriteState(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
