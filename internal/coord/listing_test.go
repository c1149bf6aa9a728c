package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// rawListing sends one listing request offering tag (none when empty)
// under the given engine fence and returns the status, ETag and body.
func rawListing(t *testing.T, url, engine, tag string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/coord/campaigns", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Flit-Engine", engine)
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// encodedListing is the byte-for-byte answer a 200 listing must carry.
func encodedListing(t *testing.T, c *coord.Coordinator) []byte {
	t.Helper()
	b, err := json.Marshal(c.Campaigns())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestListingConditional walks the conditional listing protocol: a 200
// carries a content tag, offering it back answers 304 with no body, a
// journaled call that leaves the listing as it was (heartbeat, lease then
// release) still answers 304, a restarted coordinator honours the tags of
// unchanged content, and Status ignores If-None-Match altogether.
func TestListingConditional(t *testing.T) {
	dir := t.TempDir()
	c, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var live atomic.Pointer[coord.Coordinator]
	live.Store(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		coord.Handler(live.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	get := func(tag string) (int, string, []byte) { return rawListing(t, srv.URL, flit.EngineVersion, tag) }

	status, idle, body := get("")
	if status != http.StatusOK || idle == "" || !bytes.Equal(body, encodedListing(t, c)) {
		t.Fatalf("unconditional listing: status %d, ETag %q, body %s", status, idle, body)
	}
	if status, tag, body := get(idle); status != http.StatusNotModified || tag != idle || len(body) != 0 {
		t.Fatalf("listing offering the current tag: status %d, ETag %q, %d body bytes; want 304, %q, none",
			status, tag, len(body), idle)
	}
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	status, leased, _ := get(idle)
	if status != http.StatusOK || leased == idle {
		t.Fatalf("listing after a lease: status %d, ETag %q; want 200 and a new tag", status, leased)
	}
	if err := c.Heartbeat(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := get(leased); status != http.StatusNotModified {
		t.Fatalf("listing after a heartbeat: status %d, want 304 (the listing did not change)", status)
	}
	if err := c.Release(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := get(idle); status != http.StatusNotModified {
		t.Fatalf("listing after lease then release: status %d, want 304 under the pre-lease tag", status)
	}

	c2, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	live.Store(c2)
	if status, _, _ := get(idle); status != http.StatusNotModified {
		t.Fatalf("restarted coordinator: status %d for an unchanged listing's tag, want 304", status)
	}
	if _, _, err := c2.Submit(coord.Spec{Command: secondCommand, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if status, _, body := get(idle); status != http.StatusOK || !bytes.Equal(body, encodedListing(t, c2)) {
		t.Fatalf("restarted coordinator after a submit: status %d, body %s; want the new listing", status, body)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/coord/"+id+"/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Flit-Engine", flit.EngineVersion)
	req.Header.Set("If-None-Match", idle)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "" {
		t.Fatalf("status with If-None-Match: %d, ETag %q; want an unconditional 200", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// TestListingEngineFenceBeforeTag: a request from a foreign engine is
// refused with 412 even when it offers the current tag — the fence is
// answered before any tag comparison, so a foreign client can never be
// told its (foreign) listing is current.
func TestListingEngineFenceBeforeTag(t *testing.T) {
	c, _ := newCoord(t, coord.Options{}, coord.Spec{Command: campaignCommand, Shards: 2})
	srv := httptest.NewServer(coord.Handler(c))
	t.Cleanup(srv.Close)
	_, tag, _ := rawListing(t, srv.URL, flit.EngineVersion, "")
	if status, _, _ := rawListing(t, srv.URL, "flit-engine/foreign", tag); status != http.StatusPreconditionFailed {
		t.Fatalf("foreign engine offering the current tag: status %d, want 412", status)
	}
	cl, err := coord.NewClient(srv.URL, "flit-engine/foreign", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Campaigns(t.Context()); err == nil || !strings.Contains(err.Error(), "different engine") {
		t.Fatalf("foreign client listing: %v, want the engine-fence error", err)
	}
}

// TestClientRejectsUnrequested304: a 304 answering a request that offered
// no tag is a damaged attempt. It is retried like a malformed 200, and an
// exhausted budget is an error naming the last status — never an empty
// listing.
func TestClientRejectsUnrequested304(t *testing.T) {
	c, _ := newCoord(t, coord.Options{}, coord.Spec{Command: campaignCommand, Shards: 2})
	var bare atomic.Int32 // bare 304s still to serve
	var sawTag atomic.Bool
	inner := coord.Handler(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			sawTag.Store(true)
		}
		if bare.Add(-1) >= 0 {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	bare.Store(100)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	infos, err := cl.Campaigns(t.Context())
	if err == nil {
		t.Fatalf("unrequested 304s produced a listing of %d campaigns", len(infos))
	}
	for _, want := range []string{"last status 304", "offered no tag"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("exhausted error = %q, want it to contain %q", err, want)
		}
	}
	if got, want := cl.Retries(), int64(fastOpts().Attempts-1); got != want {
		t.Fatalf("client re-sent %d times, want the whole budget (%d)", got, want)
	}
	if sawTag.Load() {
		t.Fatal("a client that never received a listing offered a tag")
	}

	// One bare 304, then the real coordinator: the retry recovers the listing.
	bare.Store(1)
	cl, err = coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	infos, err = cl.Campaigns(t.Context())
	if err != nil || !reflect.DeepEqual(infos, c.Campaigns()) || cl.Retries() != 1 {
		t.Fatalf("after one bare 304: %d campaigns, %d retries, err %v; want the listing after one retry",
			len(infos), cl.Retries(), err)
	}
}

// TestClientRejectsListingNotMatchingETag: a listing whose body still
// parses but no longer hashes to its ETag (a byte flipped inside a
// string) is damaged. Kept under its honest tag it would be served from
// the client's copy until the listing next changed, so it is retried like
// any damaged body.
func TestClientRejectsListingNotMatchingETag(t *testing.T) {
	c, _ := newCoord(t, coord.Options{}, coord.Spec{Command: campaignCommand, Shards: 2})
	inner := coord.Handler(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		w.Header().Set("ETag", rec.Header().Get("ETag"))
		w.WriteHeader(rec.Code)
		w.Write(bytes.Replace(rec.Body.Bytes(), []byte("table4"), []byte("table5"), 1))
	}))
	t.Cleanup(srv.Close)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if infos, err := cl.Campaigns(t.Context()); err == nil || !strings.Contains(err.Error(), "does not hash to its ETag") {
		t.Fatalf("listing with a damaged body: %+v, err %v; want the ETag mismatch", infos, err)
	}
}

// TestClientListingIsPrivateCopy: every Campaigns result belongs to its
// caller. Scribbling over one — rows, IDs, Command elements, appending to
// a Command — must not leak into the kept listing the next 304 is
// answered from.
func TestClientListingIsPrivateCopy(t *testing.T) {
	c, _ := newCoord(t, coord.Options{},
		coord.Spec{Command: campaignCommand, Shards: 2},
		coord.Spec{Command: secondCommand, Shards: 1})
	srv := httptest.NewServer(coord.Handler(c))
	t.Cleanup(srv.Close)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := c.Campaigns()
	for i := 0; i < 3; i++ { // a 200, then two answers from the kept listing
		infos, err := cl.Campaigns(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(infos, want) {
			t.Fatalf("call %d: listing %+v, want %+v", i, infos, want)
		}
		infos[0].ID = "scribbled"
		infos[0].Done = 99
		infos[0].Command[0] = "scribbled"
		infos[0].Command = append(infos[0].Command, "appended")
		infos[1].Command[1] = "scribbled"
		infos[1] = coord.CampaignInfo{}
	}
}

// TestListingStateMachineRandomized drives a coordinator behind HTTP
// through seeded random interleavings of submit, lease, heartbeat,
// release, fail, complete, gc, clock advance and crash-restart, and after
// every step checks that
//
//   - a listing offering the previous step's tag answers 304 exactly when
//     the encoded Campaigns() listing is byte-equal to the previous one
//     (a missed tag drop shows up here as a 304 over a changed listing);
//   - a caching Client's listing deep-equals Campaigns();
//   - no shard has two live leases (a shown lease is always the shard's
//     newest grant), attempts never exceed the budget, done is never
//     undone, a quarantined shard is never leased, and a heartbeat or
//     failure report succeeds exactly when its lease is live;
//   - a restart reproduces Campaigns() and every Status.
func TestListingStateMachineRandomized(t *testing.T) {
	pool := []coord.Spec{
		{Command: campaignCommand, Shards: 2},
		{Command: campaignCommand, Shards: 1}, // a newer generation of the same command: GC fodder
		{Command: secondCommand, Shards: 2, MaxAttempts: 2},
	}
	arts := make([][][]byte, len(pool))
	for p, spec := range pool {
		for i := 0; i < spec.Shards; i++ {
			a, err := experiments.RunShard(spec.Command, exec.Shard{Index: i, Count: spec.Shards}, 2)
			if err != nil {
				t.Fatal(err)
			}
			arts[p] = append(arts[p], a)
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runListingModel(t, rand.New(rand.NewPCG(seed, 14)), pool, arts, 200)
		})
	}
}

// grantRec is one lease the model handed out.
type grantRec struct {
	pool   int
	id     string
	worker string
	g      coord.Grant
}

func runListingModel(t *testing.T, rng *rand.Rand, pool []coord.Spec, arts [][][]byte, steps int) {
	var clock atomic.Int64 // Unix milliseconds: the journal's resolution
	clock.Store(1_700_000_000_000)
	opts := coord.Options{LeaseTTL: 10 * time.Second, MaxShardAttempts: 3,
		Now: func() time.Time { return time.UnixMilli(clock.Load()) }}
	dir := t.TempDir()
	c, err := coord.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var live atomic.Pointer[http.Handler]
	serve := func(c *coord.Coordinator) {
		h := coord.Handler(c)
		live.Store(&h)
	}
	serve(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*live.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	held := map[int]string{}              // pool index → ID of the held campaign
	newest := map[string]map[int]string{} // campaign → shard → newest lease ID granted
	doneSeen := map[string]map[int]bool{}
	var grants []grantRec
	var prevBody []byte
	var prevTag string
	notModified := 0

	status := func(id string) coord.Status {
		t.Helper()
		st, err := c.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		return st
	}
	// liveLease reports whether g is still its shard's current lease.
	liveLease := func(r grantRec) bool {
		for _, l := range status(r.id).Leases {
			if l.Shard == r.g.Shard {
				return l.LeaseID == r.g.LeaseID
			}
		}
		return false
	}
	heldPools := func() []int {
		var ps []int
		for p := range pool {
			if _, ok := held[p]; ok {
				ps = append(ps, p)
			}
		}
		return ps
	}
	forget := func(id string) {
		delete(newest, id)
		delete(doneSeen, id)
		kept := grants[:0]
		for _, r := range grants {
			if r.id != id {
				kept = append(kept, r)
			}
		}
		grants = kept
		for p, hid := range held {
			if hid == id {
				delete(held, p)
			}
		}
	}

	for step := 0; step < steps; step++ {
		var op string
		switch k := rng.IntN(20); {
		case k < 2 || len(held) == 0:
			op = "submit"
			p := rng.IntN(len(pool))
			id, _, err := c.Submit(pool[p])
			if err != nil {
				t.Fatalf("step %d submit: %v", step, err)
			}
			held[p] = id
		case k < 7:
			op = "lease"
			ps := heldPools()
			p := ps[rng.IntN(len(ps))]
			id := held[p]
			before := status(id)
			worker := fmt.Sprintf("w%d", rng.IntN(3))
			g, state, err := c.Lease(id, worker)
			if err != nil {
				t.Fatalf("step %d lease: %v", step, err)
			}
			if state != coord.Granted {
				break
			}
			for _, q := range before.Quarantined {
				if q == g.Shard {
					t.Fatalf("step %d: quarantined shard %d of %s leased", step, g.Shard, id)
				}
			}
			if newest[id] == nil {
				newest[id] = map[int]string{}
			}
			newest[id][g.Shard] = g.LeaseID
			grants = append(grants, grantRec{pool: p, id: id, worker: worker, g: g})
		case k < 14 && len(grants) > 0:
			r := grants[rng.IntN(len(grants))]
			wasLive := liveLease(r)
			var err error
			switch k {
			case 7, 8, 9:
				op = "heartbeat"
				err = c.Heartbeat(r.id, r.worker, r.g.LeaseID, r.g.Shard)
			case 10, 11:
				op = "release"
				err = c.Release(r.id, r.worker, r.g.LeaseID, r.g.Shard)
				wasLive = true // release is idempotent: never an error
			default:
				op = "fail"
				_, _, _, err = c.Fail(r.id, r.worker, r.g.LeaseID, r.g.Shard, "exit status 3", "stderr")
			}
			if wasLive != (err == nil) || (err != nil && !errors.Is(err, coord.ErrLeaseLost)) {
				t.Fatalf("step %d %s on lease %s (live=%v): %v", step, op, r.g.LeaseID, wasLive, err)
			}
		case k < 16 && len(grants) > 0:
			op = "complete"
			r := grants[rng.IntN(len(grants))]
			if _, _, _, err := c.Complete(r.id, r.worker, r.g.LeaseID, r.g.Shard, arts[r.pool][r.g.Shard]); err != nil {
				t.Fatalf("step %d complete: %v", step, err)
			}
		case k < 17:
			op = "gc"
			dry := rng.IntN(2) == 0
			res, err := c.GC(1, dry)
			if err != nil {
				t.Fatalf("step %d gc: %v", step, err)
			}
			if !dry {
				for _, id := range res.Retired {
					forget(id)
				}
			}
		case k < 19:
			op = "advance"
			clock.Add(rng.Int64N(15_000))
		default:
			op = "restart"
			infos := c.Campaigns()
			sts := make([]coord.Status, len(infos))
			for i, ci := range infos {
				sts[i] = status(ci.ID)
			}
			if c, err = coord.New(dir, opts); err != nil {
				t.Fatalf("step %d restart: %v", step, err)
			}
			serve(c)
			if got := c.Campaigns(); !reflect.DeepEqual(got, infos) {
				t.Fatalf("step %d restart: listing\n%+v\nwant\n%+v", step, got, infos)
			}
			for i, ci := range infos {
				if got := status(ci.ID); !reflect.DeepEqual(got, sts[i]) {
					t.Fatalf("step %d restart: status of %s\n%+v\nwant\n%+v", step, ci.ID, got, sts[i])
				}
			}
		}

		// The conditional listing against the previous step's tag.
		want := encodedListing(t, c)
		code, tag, body := rawListing(t, srv.URL, flit.EngineVersion, prevTag)
		switch {
		case prevTag != "" && (code == http.StatusNotModified) != bytes.Equal(want, prevBody):
			t.Fatalf("step %d (%s): status %d offering the previous tag, but the listing changed=%v",
				step, op, code, !bytes.Equal(want, prevBody))
		case code == http.StatusNotModified:
			notModified++
			if tag != prevTag || len(body) != 0 {
				t.Fatalf("step %d (%s): 304 with ETag %q and %d body bytes", step, op, tag, len(body))
			}
		case code != http.StatusOK || tag == "" || !bytes.Equal(body, want):
			t.Fatalf("step %d (%s): status %d, ETag %q, body %s; want 200 with %s", step, op, code, tag, body, want)
		}
		prevBody, prevTag = want, tag
		infos, err := cl.Campaigns(t.Context())
		if err != nil || !reflect.DeepEqual(infos, c.Campaigns()) {
			t.Fatalf("step %d (%s): caching client listed %+v (err %v), want %+v", step, op, infos, err, c.Campaigns())
		}

		// The scheduling invariants, campaign by campaign.
		for _, ci := range c.Campaigns() {
			st := status(ci.ID)
			leased := map[int]bool{}
			for _, l := range st.Leases {
				if leased[l.Shard] {
					t.Fatalf("step %d (%s): shard %d of %s has two leases", step, op, l.Shard, ci.ID)
				}
				leased[l.Shard] = true
				if l.LeaseID != newest[ci.ID][l.Shard] {
					t.Fatalf("step %d (%s): shard %d of %s shows lease %s, newest grant is %s",
						step, op, l.Shard, ci.ID, l.LeaseID, newest[ci.ID][l.Shard])
				}
			}
			for i, a := range st.Attempts {
				if a < 0 || a > st.MaxAttempts {
					t.Fatalf("step %d (%s): shard %d of %s at %d attempts, budget %d", step, op, i, ci.ID, a, st.MaxAttempts)
				}
			}
			completed := map[int]bool{}
			for _, i := range st.Completed {
				completed[i] = true
			}
			for i := range doneSeen[ci.ID] {
				if !completed[i] {
					t.Fatalf("step %d (%s): shard %d of %s was done and is not any more", step, op, i, ci.ID)
				}
			}
			doneSeen[ci.ID] = completed
			for _, q := range st.Quarantined {
				if leased[q] || completed[q] {
					t.Fatalf("step %d (%s): quarantined shard %d of %s is leased=%v done=%v", step, op, q, ci.ID, leased[q], completed[q])
				}
			}
		}
	}
	if notModified == 0 {
		t.Fatal("no step answered 304: the conditional path went unexercised")
	}
}

// TestListingTagUnderConcurrentMutation: the tag is computed outside the
// coordinator's lock, so a drop can land between encoding a listing and
// keeping its tag. Each round, caching clients, each shared by two
// goroutines, list in a tight loop while two leases change the listing in
// quick succession — the first makes the listers encode afresh, the
// second may land mid-encoding. Then everything settles and every client
// must list exactly Campaigns(): a tag kept over the second drop would
// answer 304 to the in-between listing, and nothing after the round would
// drop it again.
func TestListingTagUnderConcurrentMutation(t *testing.T) {
	specs := make([]coord.Spec, 100)
	for i := range specs {
		specs[i] = coord.Spec{Command: []string{"experiments", "table4", fmt.Sprintf("#%d", i)}, Shards: 2}
	}
	c, ids := newCoord(t, coord.Options{LeaseTTL: time.Hour}, specs...)
	srv := httptest.NewServer(coord.Handler(c))
	t.Cleanup(srv.Close)
	clients := make([]*coord.Client, 2)
	for i := range clients {
		var err error
		if clients[i], err = coord.NewClient(srv.URL, flit.EngineVersion, fastOpts()); err != nil {
			t.Fatal(err)
		}
	}
	lease := func(id string) {
		t.Helper()
		if _, state, err := c.Lease(id, "w"); err != nil || state != coord.Granted {
			t.Fatalf("lease %s: state=%v err=%v", id, state, err)
		}
	}
	rng := rand.New(rand.NewPCG(14, 0))
	for round := 0; round < 100; round++ {
		ctx, stop := context.WithCancel(t.Context())
		var listers sync.WaitGroup
		for _, cl := range clients {
			for range 2 { // two goroutines share each client's kept listing
				listers.Add(1)
				go func() {
					defer listers.Done()
					for ctx.Err() == nil {
						if _, err := cl.Campaigns(ctx); err != nil && ctx.Err() == nil {
							t.Errorf("listing: %v", err)
							return
						}
					}
				}()
			}
		}
		time.Sleep(time.Millisecond)
		lease(ids[round])
		time.Sleep(time.Duration(rng.IntN(400)) * time.Microsecond)
		lease(ids[round])
		time.Sleep(time.Millisecond)
		stop()
		listers.Wait()
		want := c.Campaigns()
		for i, cl := range clients {
			if got, err := cl.Campaigns(t.Context()); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: client %d lists a stale tenancy (err %v)", round, i, err)
			}
		}
	}
}

// BenchmarkClientCampaigns times one listing of a 1,000-campaign x
// 16-shard tenancy over loopback: unconditional (a client with nothing
// kept: encode, send, decode) against not-modified (a 304 answered from
// the client's kept listing, copied out).
func BenchmarkClientCampaigns(b *testing.B) {
	c, err := coord.New(b.TempDir(), coord.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, _, err := c.Submit(coord.Spec{Command: []string{"experiments", "table4", fmt.Sprintf("#campaign-%04d", i)}, Shards: 16}); err != nil {
			b.Fatal(err)
		}
	}
	srv := httptest.NewServer(coord.Handler(c))
	defer srv.Close()
	list := func(b *testing.B, cl *coord.Client) {
		if infos, err := cl.Campaigns(context.Background()); err != nil || len(infos) != 1000 {
			b.Fatalf("listed %d campaigns: %v", len(infos), err)
		}
	}
	b.Run("unconditional", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
			if err != nil {
				b.Fatal(err)
			}
			list(b, cl)
		}
	})
	b.Run("not-modified", func(b *testing.B) {
		cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
		if err != nil {
			b.Fatal(err)
		}
		list(b, cl)
		b.ReportAllocs()
		for b.Loop() {
			list(b, cl)
		}
	})
}
