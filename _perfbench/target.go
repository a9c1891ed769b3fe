package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vax780/internal/jobs"
	"vax780/internal/runlog"
)

// doneEv is a job-done record as the service journals it.
type doneEv struct {
	at           time.Time // when the client received it
	ID           string    `json:"id"`
	Key          string    `json:"key"`
	State        string    `json:"state"`
	Cause        string    `json:"cause"`
	Cached       bool      `json:"cached"`
	Instructions uint64    `json:"instructions"`
	Cycles       uint64    `json:"cycles"`
	CPI          float64   `json:"cpi"`
}

// doneBoard collects job-done events by job ID. An event may arrive
// before the submitter has learned the job's ID, so both sides meet at
// an entry created by whichever comes first.
type doneBoard struct {
	mu sync.Mutex
	m  map[string]*doneEntry
}

type doneEntry struct {
	ch chan struct{} // closed when ev is set
	ev doneEv
}

func newDoneBoard() *doneBoard { return &doneBoard{m: make(map[string]*doneEntry)} }

func (d *doneBoard) entry(id string) *doneEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.m[id]
	if !ok {
		e = &doneEntry{ch: make(chan struct{})}
		d.m[id] = e
	}
	return e
}

// post records one job-done event from its JSON form; other events and
// repeats are ignored.
func (d *doneBoard) post(data []byte, at time.Time) {
	var ev doneEv
	if json.Unmarshal(data, &ev) != nil || ev.ID == "" {
		return
	}
	ev.at = at
	e := d.entry(ev.ID)
	select {
	case <-e.ch:
	default:
		e.ev = ev
		close(e.ch)
	}
}

// wait blocks until job id's done event arrives or the timeout passes.
func (d *doneBoard) wait(id string, timeout time.Duration) (doneEv, error) {
	e := d.entry(id)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-e.ch:
		return e.ev, nil
	case <-t.C:
		return doneEv{}, fmt.Errorf("job %s: no job-done event within %v", id, timeout)
	}
}

// target is a job service the open loop drives: vaxd over HTTP, or an
// in-process jobs.Manager.
type target interface {
	// submit posts one spec and returns the job record and the HTTP
	// status it was (or would have been) answered with.
	submit(spec jobs.Spec) (jobs.Job, int, error)
	done() *doneBoard
}

// httpTarget drives vaxd with two connections: one carries every
// request, the other the /events stream.
type httpTarget struct {
	base   string
	client *http.Client
	board  *doneBoard
	stop   func() // ends the /events reader and waits for it
}

func newHTTPTarget(addr string) (*httpTarget, error) {
	t := &httpTarget{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		board: newDoneBoard(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	sse := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := sse.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("GET /events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /events: %s", resp.Status)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var ev string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && ev == runlog.EvJobDone:
				t.board.post([]byte(strings.TrimPrefix(line, "data: ")), time.Now())
			}
		}
	}()
	t.stop = func() {
		cancel()
		wg.Wait()
		t.client.CloseIdleConnections()
		sse.CloseIdleConnections()
	}
	return t, nil
}

func (t *httpTarget) done() *doneBoard { return t.board }

func (t *httpTarget) submit(spec jobs.Spec) (jobs.Job, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobs.Job{}, 0, err
	}
	resp, err := t.client.Post(t.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobs.Job{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobs.Job{}, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return jobs.Job{}, resp.StatusCode, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var j jobs.Job
	if err := json.Unmarshal(data, &j); err != nil {
		return jobs.Job{}, resp.StatusCode, fmt.Errorf("POST /jobs: %w", err)
	}
	return j, resp.StatusCode, nil
}

// get fetches one URL path's body over the request connection.
func (t *httpTarget) get(path string) ([]byte, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// managerTarget drives an in-process jobs.Manager, listening on its
// service-wide event bus.
type managerTarget struct {
	m     *jobs.Manager
	board *doneBoard
	stop  func()
}

func newManagerTarget(m *jobs.Manager) *managerTarget {
	// Sized above any stream's event count so no job-done is dropped.
	ch, cancel := m.EventsBus().Subscribe(1 << 14)
	t := &managerTarget{m: m, board: newDoneBoard()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ch {
			if ev.Type == runlog.EvJobDone {
				t.board.post(ev.JSON(), time.Now())
			}
		}
	}()
	t.stop = func() {
		cancel()
		wg.Wait()
	}
	return t
}

func (t *managerTarget) done() *doneBoard { return t.board }

func (t *managerTarget) submit(spec jobs.Spec) (jobs.Job, int, error) {
	j, err := t.m.Submit(spec)
	if err != nil {
		return j, jobs.HTTPStatus(err), err
	}
	if j.Cached {
		return j, http.StatusOK, nil
	}
	return j, http.StatusAccepted, nil
}

// vaxdProc is a vaxd subprocess.
type vaxdProc struct {
	cmd  *exec.Cmd
	addr string
}

// addrWriter collects vaxd's standard error and picks the listen
// address out of its first log line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var listenRE = regexp.MustCompile(`listening on (\S+),`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startVaxd execs vaxd with one worker per CPU on a fresh data
// directory and returns once /healthz answers 200, with the time that
// took.
func startVaxd(bin, data string) (*vaxdProc, time.Duration, error) {
	if err := os.RemoveAll(data); err != nil {
		return nil, 0, err
	}
	lw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", data,
		"-workers", strconv.Itoa(runtime.NumCPU()), "-queue", strconv.Itoa(queueDepth))
	cmd.Stderr = lw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting vaxd: %w", err)
	}
	p := &vaxdProc{cmd: cmd}
	select {
	case p.addr = <-lw.addr:
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, 0, fmt.Errorf("vaxd printed no listen address: %s", lw.String())
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("vaxd not healthy after 60s (%v): %s", err, lw.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// errUndrained reports a vaxd killed by SIGTERM instead of draining:
// vaxd answers /healthz 200 a moment before it installs its SIGTERM
// handler, so a stop sent right after start-up can land in between.
var errUndrained = errors.New("vaxd died on SIGTERM before installing its drain handler")

// stop drains vaxd with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (p *vaxdProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return errUndrained
			}
		}
		return err
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("vaxd did not drain within 60s")
	}
}
