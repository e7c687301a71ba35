package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"evm/evmd"
)

// daemon is an in-process evmd behind its HTTP handler on loopback.
type daemon struct {
	srv    *evmd.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// MaxRuns bounds the run table so finished runs' logs do not pile up
	// over a long run; eviction is oldest-finished first, and each client
	// reads its run's status right after the stream ends.
	srv := evmd.NewServer(evmd.Config{Workers: 2, MaxRuns: 256})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	c := newClient(d.base)
	defer c.hc.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := c.hc.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 100 {
			d.stop()
			return nil, fmt.Errorf("evmd not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the listener and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout here only leaves idle connections behind
	d.srv.Drain(10 * time.Second)
	<-d.served
}

// client is one closed-loop submitter with its own single connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// daemonRun is one client-observed run.
type daemonRun struct {
	idx         int
	out         *runOutput
	submitNS    int64
	queueWaitMS float64
	execMS      float64
	lagMS       float64
	events      int
	end         time.Time // when the stream ended
}

// submit POSTs one run, reads its NDJSON event stream to the end and then
// its final status. A refused submission, a failed run or a stream
// shorter than the run's event log is an operation failure, recorded in
// out.err.
func (c *client) submit(idx int, body []byte) (daemonRun, error) {
	r := daemonRun{idx: idx, out: &runOutput{series: make(map[string]int)}}
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	var ack evmd.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.submitNS = int64(time.Since(start))
	if resp.StatusCode != http.StatusAccepted {
		r.out.err = fmt.Sprintf("refused: HTTP %d", resp.StatusCode)
		r.out.wallNS = r.submitNS
		r.end = time.Now()
		return r, nil
	}
	if derr != nil || len(ack.Runs) != 1 {
		return r, fmt.Errorf("submit: bad acknowledgement (%v)", derr)
	}
	id := ack.Runs[0].ID

	resp, err = c.hc.Get(c.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return r, fmt.Errorf("events %s: %w", id, err)
	}
	h := sha256.New()
	br := bufio.NewReader(resp.Body)
	var rec struct {
		Series string `json:"series"`
	}
	var readErr error
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			h.Write(line)
			if err := json.Unmarshal(line, &rec); err != nil {
				readErr = fmt.Errorf("events %s: bad record: %w", id, err)
			}
			r.out.series[rec.Series]++
			r.events++
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
	}
	resp.Body.Close()
	end := time.Now()
	r.end = end
	r.out.wallNS = int64(end.Sub(start))
	r.out.streamHash = hex.EncodeToString(h.Sum(nil))

	resp, err = c.hc.Get(c.base + "/v1/runs/" + id)
	if err != nil {
		return r, fmt.Errorf("status %s: %w", id, err)
	}
	var st evmd.RunStatus
	derr = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil {
		return r, fmt.Errorf("status %s: HTTP %d (%v)", id, resp.StatusCode, derr)
	}
	r.out.metrics = st.Metrics
	r.queueWaitMS, r.execMS = st.QueueWaitMS, st.WallMS
	if st.FinishedAt != nil {
		r.lagMS = float64(end.Sub(*st.FinishedAt)) / float64(time.Millisecond)
	}
	switch {
	case readErr != nil:
		r.out.err = "stream: " + readErr.Error()
	case st.State == evmd.RunFailed:
		r.out.err = st.Error
	case st.State != evmd.RunDone:
		r.out.err = "run ended " + string(st.State)
	case r.events != st.Events:
		r.out.err = fmt.Sprintf("stream cut short: %d of %d events", r.events, st.Events)
	}
	return r, nil
}

// daemonWindow drives d with two closed-loop clients, each submitting the
// next spec of the cycle only after its previous run's stream ended,
// until seconds have passed and a cycle is complete, and for at least two
// cycles.
func daemonWindow(d *daemon, w *workload, seconds float64) (*window, []daemonRun, error) {
	var (
		mu   sync.Mutex
		next int
		runs []daemonRun
		errs []error
	)
	win := &window{}
	win.begin()
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= 2*len(w.specs) && next%len(w.specs) == 0 && win.elapsed() >= seconds {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c := newClient(d.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for {
				idx := take()
				if idx < 0 {
					return
				}
				r, err := c.submit(idx, w.requests[idx%len(w.requests)])
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				}
				runs = append(runs, r)
				stop := err != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	win.end()
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].idx < runs[j].idx })
	// A cycle ends when its last stream ends; runs of adjacent cycles
	// overlap by at most one per client.
	prev := win.start
	for k := 0; k < len(runs); k += len(w.specs) {
		end := prev
		for _, r := range runs[k : k+len(w.specs)] {
			win.outs = append(win.outs, r.out)
			if r.end.After(end) {
				end = r.end
			}
		}
		win.cycleWalls = append(win.cycleWalls, end.Sub(prev).Seconds())
		prev = end
	}
	return win, runs, nil
}

// daemonReference runs every spec serially outside the daemon: through the
// harness for metrics, violations and layer counters, and through
// evmd.SerialEvents for the event stream the daemon must reproduce. It
// returns the harness outputs and, per spec, the record a correct daemon
// run digests to.
func daemonReference(w *workload) ([]*runOutput, []*runOutput, error) {
	h := newHarness(false)
	var outs, expect []*runOutput
	for _, spec := range w.specs {
		out := h.run(spec)
		exp := &runOutput{err: out.err, metrics: out.metrics, series: make(map[string]int)}
		recs, err := evmd.SerialEvents(spec)
		if err == nil {
			hs := sha256.New()
			enc := json.NewEncoder(hs)
			for _, rec := range recs {
				if err := enc.Encode(rec); err != nil {
					return nil, nil, fmt.Errorf("encode reference stream: %w", err)
				}
				exp.series[rec.Series]++
			}
			exp.streamHash = hex.EncodeToString(hs.Sum(nil))
		}
		outs = append(outs, out)
		expect = append(expect, exp)
	}
	return outs, expect, nil
}
