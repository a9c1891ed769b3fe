// Command vaxd is the simulation service: a crash-tolerant daemon that
// accepts measurement jobs over HTTP, feeds them through the
// simulator's run engine behind admission control, and serves results
// from a content-addressed store.
//
//	vaxd -data /var/lib/vaxd -addr :8780
//
// API:
//
//	POST /jobs              submit a job spec (JSON); 202 + job record,
//	                        or 200 when the result is already cached.
//	                        Rejections: 400 bad spec, 429 queue full or
//	                        quota exceeded, 503 draining.
//	GET  /jobs              list all known jobs
//	GET  /jobs/{id}         one job record
//	GET  /jobs/{id}/events  the job's live run ledger as SSE
//	GET  /events            the service-wide journal stream as SSE
//	                        (every job's lifecycle events; vaxtop -jobs)
//	GET  /results/{key}     a committed bundle's file list
//	GET  /results/{key}/{file}  one bundle file (ledger.jsonl,
//	                        histogram.upch, report.txt, meta.json,
//	                        trace.jsonl, ...)
//	GET  /trace/{id}        the job's assembled causal trace: HTTP
//	                        admission → queue → attempt(s) → run →
//	                        workloads → control-store flows, one
//	                        connected tree even across a kill/restart.
//	                        ?format=chrome emits chrome://tracing JSON.
//	GET  /metrics           Prometheus text: per-tenant RED counters,
//	                        latency histograms, queue/store gauges.
//	                        Counters recompose from the journal
//	                        (obs.Validate; `vaxdiag -obs` checks).
//	GET  /healthz           readiness: 503 until the journal replay
//	                        completes, 503 again once draining starts.
//	GET  /livez             liveness: 200 whenever the process serves.
//
// On SIGTERM/SIGINT vaxd drains: admission stops, in-flight jobs are
// canceled at their next workload boundary (their checkpoints stay in
// the store's staging area), every unfinished job is journaled as
// evicted, and the process exits 0. The next vaxd over the same -data
// directory replays the journal, requeues the evicted jobs, and their
// runs resume from checkpoint — completing bit-identically to runs
// that were never interrupted.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"vax780/internal/castore"
	"vax780/internal/jobs"
	"vax780/internal/obs"
	"vax780/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8780", "HTTP listen address")
		data    = flag.String("data", "vaxd-data", "data directory (store, staging, journal)")
		depth   = flag.Int("queue", 16, "admission queue depth (submissions beyond it get 429)")
		workers = flag.Int("workers", 1, "concurrent job runners")
		rate    = flag.Float64("quota-rate", 0, "per-tenant admission tokens per second (0 = no quotas)")
		burst   = flag.Float64("quota-burst", 0, "per-tenant token bucket capacity")
	)
	flag.Parse()
	if err := run(*addr, *data, *depth, *workers, *rate, *burst); err != nil {
		fmt.Fprintln(os.Stderr, "vaxd:", err)
		os.Exit(1)
	}
}

func run(addr, data string, depth, workers int, rate, burst float64) error {
	// The signal handler goes in before anything can report ready: a
	// SIGTERM that arrives right after the first /healthz 200 must drain,
	// not kill the process with the default action. One arriving during
	// journal replay waits in the channel and drains as soon as the
	// manager exists.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	// Listener first: the socket answers immediately, with /healthz
	// reporting 503 "starting" until journal replay finishes, so
	// orchestrators can distinguish "booting" from "dead".
	met := obs.NewMetrics()
	h := newHandler(nil, met)
	srv := &http.Server{Addr: addr, Handler: h.routes()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("vaxd: listening on %s, data in %s", ln.Addr(), data)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	store, err := castore.Open(data)
	if err != nil {
		srv.Close()
		<-done
		return err
	}
	defer store.Close()

	mgr, err := jobs.New(jobs.Config{
		Store:      store,
		QueueDepth: depth,
		Workers:    workers,
		Quota:      jobs.Quota{Rate: rate, Burst: burst},
		Metrics:    met,
	})
	if err != nil {
		srv.Close()
		<-done
		return err
	}
	h.setManager(mgr)
	log.Printf("vaxd: ready")

	select {
	case err := <-done:
		mgr.Close()
		return err
	case s := <-sig:
		log.Printf("vaxd: %v: draining", s)
		requeued := mgr.Drain(s.String())
		log.Printf("vaxd: drained, %d jobs requeued for next process", requeued)
		srv.Close()
		<-done
		return nil
	}
}

// handler is the service's HTTP surface. The manager pointer is set
// once startup recovery completes; until then every job route answers
// 503 and /healthz reports not-ready.
type handler struct {
	mgr     atomic.Pointer[jobs.Manager]
	metrics *obs.Metrics
}

// newHandler builds the surface; pass a nil manager to start in the
// "booting" state and install the manager later with setManager.
func newHandler(mgr *jobs.Manager, met *obs.Metrics) *handler {
	h := &handler{metrics: met}
	if mgr != nil {
		h.setManager(mgr)
	}
	return h
}

func (h *handler) setManager(mgr *jobs.Manager) { h.mgr.Store(mgr) }

func (h *handler) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", h.submit)
	mux.HandleFunc("GET /jobs", h.list)
	mux.HandleFunc("GET /jobs/{id}", h.get)
	mux.HandleFunc("GET /jobs/{id}/events", h.events)
	mux.HandleFunc("GET /events", h.fleetEvents)
	mux.HandleFunc("GET /results/{key}", h.bundle)
	mux.HandleFunc("GET /results/{key}/{file}", h.file)
	mux.HandleFunc("GET /trace/{id}", h.trace)
	mux.HandleFunc("GET /metrics", h.prometheus)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /livez", h.livez)
	return mux
}

// manager returns the job manager, or answers 503 and returns nil while
// the service is still replaying its journal.
func (h *handler) manager(w http.ResponseWriter) *jobs.Manager {
	m := h.mgr.Load()
	if m == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "starting: journal replay in progress"})
	}
	return m
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps a jobs-layer error onto the wire via the tested
// HTTPStatus table, as a small JSON problem document.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, jobs.HTTPStatus(err), map[string]string{"error": err.Error()})
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	start := time.Now()
	var spec jobs.Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		err = fmt.Errorf("%w: %v", jobs.ErrBadSpec, err)
		writeErr(w, err)
		m.NoteHTTP("", "POST /jobs", spec.Tenant, jobs.HTTPStatus(err), time.Since(start).Nanoseconds())
		return
	}
	job, err := m.Submit(spec)
	if err != nil {
		writeErr(w, err)
		m.NoteHTTP("", "POST /jobs", spec.Tenant, jobs.HTTPStatus(err), time.Since(start).Nanoseconds())
		return
	}
	code := http.StatusAccepted
	if job.Cached {
		code = http.StatusOK // answered from the content-addressed cache
	}
	writeJSON(w, code, job)
	// Submissions are journaled (polls are not): the journal fsyncs per
	// record, and admission traffic is what the RED counters measure.
	m.NoteHTTP(job.ID, "POST /jobs", spec.Tenant, code, time.Since(start).Nanoseconds())
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, m.List())
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	job, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	m.ServeEvents(w, r, r.PathValue("id"))
}

// fleetEvents streams the service-wide journal bus: every lifecycle
// record for every job, as it is journaled. vaxtop -jobs renders it.
func (h *handler) fleetEvents(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	telemetry.ServeBus(w, r, m.EventsBus())
}

func (h *handler) bundle(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	key := r.PathValue("key")
	names, err := m.Store().Bundle(key)
	if err != nil {
		if errors.Is(err, castore.ErrNoBundle) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "files": names})
}

func (h *handler) file(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	key, name := r.PathValue("key"), r.PathValue("file")
	f, err := m.Store().Open(key, name)
	if err != nil {
		if errors.Is(err, castore.ErrNoBundle) {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".jsonl"):
		w.Header().Set("Content-Type", "application/json")
	case strings.HasSuffix(name, ".txt"):
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	io.Copy(w, f)
}

// trace assembles one job's end-to-end causal trace from the service
// journal plus the committed bundle's run trace, as span rows (JSONL)
// or, with ?format=chrome, as a chrome://tracing JSON document.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	m := h.manager(w)
	if m == nil {
		return
	}
	id := r.PathValue("id")
	job, err := m.Get(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	var journal bytes.Buffer
	err = m.Store().ReplayJournal(func(line []byte) error {
		journal.Write(line)
		journal.WriteByte('\n')
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var bundleTrace []byte
	if m.Store().Has(job.Key) {
		// Sweep bundles carry no trace; assembly degrades gracefully.
		bundleTrace, _ = m.Store().ReadFile(job.Key, "trace.jsonl")
	}
	trace, root, err := obs.AssembleJob(&journal, id, bundleTrace)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		obs.WriteChromeTrace(w, trace, root)
		return
	}
	obs.WriteRows(w, trace, root)
}

func (h *handler) prometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.metrics.WritePrometheus(w)
}

// healthz is readiness: not ready while the journal is still replaying
// (a restarted vaxd may requeue jobs during this window) and not ready
// again once draining starts, so load balancers stop routing
// submissions that would only be shed.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if m := h.mgr.Load(); m == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "reason": "starting"})
	} else if m.Draining() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ok": false, "reason": "draining"})
	} else {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	}
}

// livez is liveness: the process is serving, whatever its readiness.
func (h *handler) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
