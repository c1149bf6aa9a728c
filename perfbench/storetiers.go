package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
)

// storeTiers is the store-tiers workload: the persist-and-share read path.
// Set-up runs the sweep cold on machine A, writing through to A's Disk,
// and serves that Disk on loopback. Each pass then times two warm runs:
//
//   - remote warm: machine B, sharing nothing with A but the URL, runs
//     the sweep with only a Remote tier, so every key is a GET;
//   - disk warm: machine A's next run, served from its own Disk.
//
// The write paths (the cold write-through over HTTP and a local Disk
// filling from the Remote) are fsync-bound and are measured per layer by
// the traced census instead; see README.md.
type storeTiers struct {
	workers int
	data    string // parent of each set-up's fresh directory

	dir string
	a   *store.Disk
	srv *httptest.Server
}

// open is one set-up: a fresh Disk filled by a cold sweep, then served.
// It stays open for the passes until close.
func (w *storeTiers) open(r *report) error {
	dir, err := os.MkdirTemp(w.data, "store-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.a, err = store.Open(filepath.Join(dir, "machine-a"), flit.EngineVersion); err != nil {
		return err
	}
	eng := experiments.NewEngine(w.workers)
	eng.AttachStore(w.a)
	if _, err := timedSweep(r, "store set-up", eng); err != nil {
		return err
	}
	r.check(eng.CacheMetrics().Store.Puts > 0, "store set-up: nothing written through")
	w.srv = httptest.NewServer(store.Handler(w.a))
	return nil
}

func (w *storeTiers) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// pass runs the two warm phases and returns machine A's warm engine,
// whose heap the caller measures.
func (w *storeTiers) pass(r *report) (*experiments.Engine, error) {
	remote, err := store.NewRemote(w.srv.URL, flit.EngineVersion, nil)
	if err != nil {
		return nil, err
	}
	engB := experiments.NewEngine(w.workers)
	engB.AttachStoreTiers(remote)
	if _, err := timedSweep(r, "remote warm", engB); err != nil {
		return nil, err
	}
	checkRemote(r, "remote warm", remote)
	r.check(remote.Metrics().Hits > 0, "remote warm: no hits over the wire")

	engA := experiments.NewEngine(w.workers)
	engA.AttachStore(w.a)
	if _, err := timedSweep(r, "disk warm", engA); err != nil {
		return nil, err
	}
	r.check(engA.CacheMetrics().Store.Hits > 0, "disk warm: no store hits")
	return engA, nil
}

// timedSweep runs one sweep on eng, checks it, and returns its duration.
func timedSweep(r *report, what string, eng *experiments.Engine) (float64, error) {
	t0 := time.Now()
	digest, err := eng.SweepDigest()
	d := time.Since(t0).Seconds()
	if err != nil {
		return d, fmt.Errorf("%s: %w", what, err)
	}
	checkSweep(r, what, digest, nil, eng.BisectStats().Execs)
	return d, nil
}

// checkRemote requires a clean loopback transport: no retries, no errors.
func checkRemote(r *report, what string, rm *store.Remote) {
	m := rm.Metrics()
	r.check(m.Retries == 0 && m.Errors == 0, "%s: remote transport retries=%d errors=%d", what, m.Retries, m.Errors)
}

// tracedStoreTiers is the census's store section: every tier path once,
// with each tier behind a timedStore and the server behind middleware.
//
//  1. cold: machine A writes through a Remote to the served Disk;
//  2. remote fill: machine B's first run, an empty local Disk in front
//     of the Remote, so every key is a GET plus a local fill;
//  3. remote warm: a run with only the Remote tier, every key a GET;
//  4. disk warm: machine B's next run, from its local Disk.
func tracedStoreTiers(r *report, workers int, data string, prof *sectionProfiler) error {
	dir, err := os.MkdirTemp(data, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	served, err := store.Open(filepath.Join(dir, "server"), flit.EngineVersion)
	if err != nil {
		return err
	}
	server := newOpLatencies()
	srv := httptest.NewServer(timeHandler(store.Handler(served), storeOp, server))
	defer srv.Close()
	localDir := filepath.Join(dir, "machine-b")

	phases := []struct {
		metric        string
		remote, local bool
	}{
		{"store.phase.cold_s", true, false},
		{"store.phase.remote_fill_s", true, true},
		{"store.phase.remote_warm_s", true, false},
		{"store.phase.disk_warm_s", false, true},
	}
	var remoteT, diskT []*timedStore
	var warmBuilds, retries, errs int64
	phase := func(i int) error {
		p := phases[i]
		var tiers []store.Store
		if p.local {
			d, err := store.Open(localDir, flit.EngineVersion)
			if err != nil {
				return err
			}
			diskT = append(diskT, &timedStore{inner: d})
			tiers = append(tiers, diskT[len(diskT)-1])
		}
		var rm *store.Remote
		if p.remote {
			if rm, err = store.NewRemote(srv.URL, flit.EngineVersion, nil); err != nil {
				return err
			}
			remoteT = append(remoteT, &timedStore{inner: rm})
			tiers = append(tiers, remoteT[len(remoteT)-1])
		}
		eng := experiments.NewEngine(workers)
		eng.AttachStoreTiers(tiers...)
		d, err := timedSweep(r, p.metric, eng)
		if err != nil {
			return err
		}
		r.set(p.metric, d)
		if i > 0 {
			warmBuilds += eng.CacheMetrics().Builds
		}
		if rm != nil {
			checkRemote(r, p.metric, rm)
			m := rm.Metrics()
			retries += m.Retries
			errs += m.Errors
		}
		return nil
	}
	runtime.GC()
	prof.start("store-tiers")
	for i := range phases {
		if err = phase(i); err != nil {
			break
		}
	}
	prof.stop()
	if err != nil {
		return err
	}
	st, err := store.Open(localDir, flit.EngineVersion)
	if err != nil {
		return err
	}
	stats, err := st.Stats()
	if err != nil {
		return err
	}

	set := func(prefix string, ts []*timedStore) {
		var put, get timer
		for _, t := range ts {
			put.merge(&t.put)
			get.merge(&t.get)
		}
		r.set(prefix+".put_n", put.count())
		r.set(prefix+".put_s", put.seconds())
		r.set(prefix+".get_n", get.count())
		r.set(prefix+".get_s", get.seconds())
	}
	set("store.remote", remoteT)
	set("store.disk", diskT)
	r.set("store.remote.retries", float64(retries))
	r.set("store.remote.errors", float64(errs))
	r.set("store.warm_builds", float64(warmBuilds))
	r.set("store.disk.bytes", float64(stats.Bytes))
	r.set("store.disk.files", float64(stats.Entries))
	n, busy := server.total()
	var put time.Duration
	for _, d := range server.samples(http.MethodPut) {
		put += d
	}
	r.set("http.store.requests", float64(n))
	r.set("http.store.server_s", busy.Seconds())
	r.set("http.store.put_server_s", put.Seconds())
	return nil
}
