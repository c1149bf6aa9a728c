package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/flit"
)

// coordOps is a closed loop of clients over loopback HTTP against one
// coordinator holding many campaigns. Each iteration of a client lists
// the campaigns and then visits a seed-chosen one. Without mutate it
// reads that campaign's status: the coord-reads workload. With mutate it
// leases a shard, heartbeats it three times and releases it, four
// journaled (fsynced) mutations: the census's coordinator loop.
type coordOps struct {
	clients   int
	campaigns int
	shards    int
	iters     int // iterations per client in one pass
	mutate    bool
	seed      uint64
	data      string

	dir   string
	srv   *httptest.Server
	ids   []string
	cls   []*coord.Client
	sched [][]int // per client: campaign index of every iteration
	next  []int   // per client: index of its next iteration
}

// schedule returns the campaign indices the client with the given index
// visits in its first n iterations, drawn from seed alone.
func schedule(seed uint64, client, campaigns, n int) []int {
	rng := rand.New(rand.NewPCG(seed, uint64(client)))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.IntN(campaigns)
	}
	return out
}

// open starts a fresh coordinator: submits every campaign, then serves it
// on loopback until close. server, when non-nil, times every request.
func (w *coordOps) open(server *opLatencies) error {
	dir, err := os.MkdirTemp(w.data, "coord-")
	if err != nil {
		return err
	}
	c, err := coord.New(dir, coord.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	// The commands differ only to give each campaign its own ID; no
	// worker ever runs them.
	ids := make([]string, w.campaigns)
	for i := range ids {
		id, created, err := c.Submit(coord.Spec{Command: []string{"experiments", "table4", fmt.Sprintf("#campaign-%04d", i)}, Shards: w.shards})
		if err != nil || !created {
			os.RemoveAll(dir)
			return fmt.Errorf("submit campaign %d: created=%v err=%v", i, created, err)
		}
		ids[i] = id
	}
	mux := http.NewServeMux()
	var h http.Handler = coord.Handler(c)
	if server != nil {
		h = timeHandler(h, coordOp, server)
	}
	mux.Handle("/v1/coord/", h)
	w.dir, w.ids = dir, ids
	w.srv = httptest.NewServer(mux)
	w.cls = make([]*coord.Client, w.clients)
	for i := range w.cls {
		if w.cls[i], err = coord.NewClient(w.srv.URL, flit.EngineVersion, nil); err != nil {
			w.close()
			return err
		}
	}
	w.next = make([]int, w.clients)
	w.sched = make([][]int, w.clients)
	return nil
}

func (w *coordOps) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// clientStats is one client's share of a pass.
type clientStats struct {
	leases, granted int64
	lat             []time.Duration // per op, when recorded
}

// pass runs w.iters iterations on every client concurrently, checking
// every call, and that no client retried, into r. With record set, each
// client keeps its per-op latencies.
func (w *coordOps) pass(r *report, record bool) []clientStats {
	stats := make([]clientStats, w.clients)
	var wg sync.WaitGroup
	for ci := range w.cls {
		from := w.next[ci]
		w.next[ci] += w.iters
		if len(w.sched[ci]) < w.next[ci] {
			w.sched[ci] = schedule(w.seed, ci, w.campaigns, 2*w.next[ci])
		}
		wg.Add(1)
		go func(ci int, plan []int) {
			defer wg.Done()
			w.client(r, ci, plan, &stats[ci], record)
		}(ci, w.sched[ci][from:w.next[ci]])
	}
	wg.Wait()
	for ci, cl := range w.cls {
		r.check(cl.Retries() == 0, "client %d retried %d requests", ci, cl.Retries())
	}
	return stats
}

// client runs one client's iterations over the given campaign indices.
func (w *coordOps) client(r *report, ci int, plan []int, s *clientStats, record bool) {
	ctx := context.Background()
	cl := w.cls[ci]
	worker := fmt.Sprintf("bench-client-%d", ci)
	timed := func(f func() error) error {
		t0 := time.Now()
		err := f()
		if record {
			s.lat = append(s.lat, time.Since(t0))
		}
		return err
	}
	for _, k := range plan {
		id := w.ids[k]
		var infos []coord.CampaignInfo
		err := timed(func() (err error) { infos, err = cl.Campaigns(ctx); return err })
		r.check(err == nil && len(infos) == w.campaigns, "campaigns: %d listed, err=%v", len(infos), err)

		if !w.mutate {
			var st coord.Status
			err = timed(func() (err error) { st, err = cl.Status(ctx, id); return err })
			r.check(err == nil && st.ID == id && st.Shards == w.shards && st.Done == 0,
				"status %s: id=%s shards=%d done=%d err=%v", id, st.ID, st.Shards, st.Done, err)
			continue
		}
		var g coord.Grant
		var state coord.LeaseState
		err = timed(func() (err error) { g, state, err = cl.Lease(ctx, id, worker); return err })
		s.leases++
		granted := err == nil && state == coord.Granted
		r.check(granted, "lease %s: state=%d err=%v", id, state, err)
		if !granted {
			continue
		}
		s.granted++
		for h := 0; h < 3; h++ {
			err = timed(func() error { return cl.Heartbeat(ctx, id, worker, g.LeaseID, g.Shard) })
			r.check(err == nil, "heartbeat %s/%d: %v", id, g.Shard, err)
		}
		err = timed(func() error { return cl.Release(ctx, id, worker, g.LeaseID, g.Shard) })
		r.check(err == nil, "release %s/%d: %v", id, g.Shard, err)
	}
}

// tracedCoordLoop sets the coordinator up once with server middleware,
// runs one recorded pass of the mutating loop and reports the
// coordinator layer.
func tracedCoordLoop(r *report, w *coordOps, prof *sectionProfiler) error {
	w.mutate = true
	server := newOpLatencies()
	if err := w.open(server); err != nil {
		return err
	}
	defer w.close()
	fi, err := os.Stat(filepath.Join(w.dir, "coord.json"))
	if err != nil {
		return err
	}
	prof.start("coord-reads")
	t0 := time.Now()
	stats := w.pass(r, true)
	wall := time.Since(t0).Seconds()
	prof.stop()
	var lat []time.Duration
	var leases, granted, retries int64
	for i, s := range stats {
		lat = append(lat, s.lat...)
		leases += s.leases
		granted += s.granted
		retries += w.cls[i].Retries()
	}
	for _, op := range []string{"lease", "heartbeat", "release", "campaigns"} {
		ds := server.samples(op)
		r.set("coord."+op+"_p50_ms", percentileMS(ds, 0.50))
		r.set("coord."+op+"_p99_ms", percentileMS(ds, 0.99))
	}
	_, busy := server.total()
	r.set("coord.server_busy_s", busy.Seconds())
	r.set("coord.journal_bytes", float64(fi.Size()))
	r.set("coord.grant_ratio", float64(granted)/float64(max(leases, 1)))
	r.set("coord.client_retries", float64(retries))
	r.set("coord.client_ops", float64(len(lat)))
	r.set("coord.client_p50_ms", percentileMS(lat, 0.50))
	r.set("coord.client_p99_ms", percentileMS(lat, 0.99))
	r.set("coord.ops_per_s", float64(len(lat))/wall)
	return nil
}
