package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/store"
)

// timer accumulates a call count and the time spent in the calls. It is
// safe for concurrent use: the engine's pool calls wrapped layers from
// several goroutines.
type timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (t *timer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// merge adds o's calls and time to t.
func (t *timer) merge(o *timer) {
	t.n.Add(o.n.Load())
	t.ns.Add(o.ns.Load())
}

func (t *timer) count() float64   { return float64(t.n.Load()) }
func (t *timer) seconds() float64 { return time.Duration(t.ns.Load()).Seconds() }

// timedStore is a store.Store decorator timing every Get and Put of one
// tier. It changes nothing a caller sees: same bytes, same hits, same
// errors.
type timedStore struct {
	inner    store.Store
	get, put timer
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.inner.Get(key)
	s.get.add(time.Since(t0))
	return data, ok
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.put.add(time.Since(t0))
	return err
}

// timedCase wraps a flit.TestCase and times every Run: simulated machine
// dispatch, FP kernels and application code. Unwrap lets flit.TestKey see
// through it, so cache and store keys are those of the wrapped case.
type timedCase struct {
	flit.TestCase
	t *timer
}

func (c timedCase) Run(input []float64, m *link.Machine) (flit.Result, error) {
	t0 := time.Now()
	r, err := c.TestCase.Run(input, m)
	c.t.add(time.Since(t0))
	return r, err
}

func (c timedCase) Unwrap() flit.TestCase { return c.TestCase }

// timeCases wraps every case with one shared timer.
func timeCases(cases []flit.TestCase, t *timer) []flit.TestCase {
	out := make([]flit.TestCase, len(cases))
	for i, c := range cases {
		out[i] = timedCase{TestCase: c, t: t}
	}
	return out
}

// opLatencies records per-operation server-side latencies, keyed by an
// operation name the middleware derives from the request.
type opLatencies struct {
	mu   sync.Mutex
	byOp map[string][]time.Duration
}

func newOpLatencies() *opLatencies {
	return &opLatencies{byOp: make(map[string][]time.Duration)}
}

func (o *opLatencies) add(op string, d time.Duration) {
	o.mu.Lock()
	o.byOp[op] = append(o.byOp[op], d)
	o.mu.Unlock()
}

// samples returns a copy of one operation's latencies.
func (o *opLatencies) samples(op string) []time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]time.Duration(nil), o.byOp[op]...)
}

// total returns the number of requests served and the time spent serving
// them.
func (o *opLatencies) total() (n int, busy time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.byOp {
		n += len(s)
		for _, d := range s {
			busy += d
		}
	}
	return n, busy
}

// timeHandler is http.Handler middleware recording how long h takes to
// serve each request, under the operation name opOf gives it.
func timeHandler(h http.Handler, opOf func(*http.Request) string, rec *opLatencies) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(opOf(r), time.Since(t0))
	})
}

// storeOp names a store-protocol request by its method.
func storeOp(r *http.Request) string { return r.Method }

// coordOp names a coordinator request by the last element of its path:
// /v1/coord/campaigns, /v1/coord/<id>/lease, .../heartbeat, ...
func coordOp(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	return p[strings.LastIndexByte(p, '/')+1:]
}

// sectionProfiler CPU-profiles the one census section that belongs to
// the chosen workload; start and stop are no-ops for the others.
type sectionProfiler struct {
	workload string
	path     string
	f        *os.File
	done     bool
	err      error
}

func (p *sectionProfiler) start(section string) {
	if section != p.workload || p.err != nil {
		return
	}
	if p.f, p.err = os.Create(p.path); p.err != nil {
		return
	}
	if p.err = pprof.StartCPUProfile(p.f); p.err != nil {
		p.f.Close()
		p.f = nil
	}
}

// stop ends a running profile; pprof has flushed it when
// StopCPUProfile returns.
func (p *sectionProfiler) stop() {
	if p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	p.err = p.f.Close()
	p.f, p.done = nil, true
}

// cpuLayers are the layers CPU-profile samples are attributed to, as
// named in the cpu.<layer>_pct metrics.
var cpuLayers = []string{"link", "fp", "apps", "runtime_map", "gc", "store", "net", "coord"}

// cpuShares summarises a CPU profile: sampled CPU seconds, each layer's
// flat share of the samples and the cumulative share of
// link.(*Machine).Fn, in percent.
type cpuShares struct {
	cpuSeconds   float64
	pct          map[string]float64
	machineFnCum float64
}

// summarizeProfile runs `go tool pprof -top` over a CPU profile and
// attributes each function's flat share to a layer by its symbol name.
func summarizeProfile(path string) (cpuShares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTop(out.Bytes())
}

// parseTop reads `pprof -top` text: a header, then rows of
// "flat flat% sum% cum cum% name".
func parseTop(text []byte) (cpuShares, error) {
	s := cpuShares{pct: make(map[string]float64)}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	for sc.Scan() {
		line := sc.Text()
		if _, after, ok := strings.Cut(line, "Total samples = "); ok {
			if d, err := time.ParseDuration(strings.Fields(after)[0]); err == nil {
				s.cpuSeconds = d.Seconds()
			}
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		name := strings.Join(f[5:], " ")
		if name == "repro/internal/link.(*Machine).Fn" {
			s.machineFnCum = cum
		}
		if l := layerOf(name); l != "" {
			s.pct[l] += flat
		}
	}
	if rows == 0 {
		return s, fmt.Errorf("pprof -top printed no rows")
	}
	return s, sc.Err()
}

// layerOf classifies a profiled function by package.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "repro/internal/link."):
		return "link"
	case strings.HasPrefix(name, "repro/internal/fp."):
		return "fp"
	case strings.HasPrefix(name, "repro/internal/apps/"):
		return "apps"
	case strings.HasPrefix(name, "repro/internal/store."):
		return "store"
	case strings.HasPrefix(name, "repro/internal/coord."):
		return "coord"
	case strings.HasPrefix(name, "runtime.map"), strings.HasPrefix(name, "internal/runtime/maps."),
		strings.HasPrefix(name, "runtime.aeshash"), strings.HasPrefix(name, "runtime.memhash"),
		strings.HasPrefix(name, "runtime.strhash"):
		return "runtime_map"
	case strings.HasPrefix(name, "runtime.gc"), strings.HasPrefix(name, "runtime.scanobject"),
		strings.HasPrefix(name, "runtime.greyobject"), strings.HasPrefix(name, "runtime.findObject"),
		strings.HasPrefix(name, "runtime.markBits"), strings.HasPrefix(name, "runtime.(*gcWork)"),
		strings.HasPrefix(name, "runtime.(*mspan).sweep"), strings.HasPrefix(name, "runtime.sweepone"),
		strings.HasPrefix(name, "runtime.bgsweep"), strings.HasPrefix(name, "runtime.wbBuf"),
		strings.HasPrefix(name, "runtime.bulkBarrier"):
		return "gc"
	case strings.HasPrefix(name, "net/"), strings.HasPrefix(name, "net."),
		strings.HasPrefix(name, "runtime.netpoll"):
		return "net"
	}
	return ""
}
