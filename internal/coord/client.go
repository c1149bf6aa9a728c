package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Client speaks the coordinator protocol under the same transport
// discipline as store.Remote — bounded retries with backoff and jitter on
// 5xx/timeouts/connection errors, a per-operation deadline — because a
// worker mid-campaign sees exactly the network a remote store client
// does. Unlike the store client it does NOT fail open: scheduling calls
// are cheap and their answers change what the worker does next, so an
// exhausted retry budget surfaces as an error the worker loop backs off
// on, not as a silent miss. Every method takes a context: the retry
// loop's deadline is clipped to it, so a draining worker's cancellation
// interrupts an in-flight backoff instead of riding it out.
//
// The client keeps the last listing it received with its content tag and
// offers the tag on the next Campaigns call; a 304 answers it from the
// kept listing without anything encoded, sent, or decoded.
type Client struct {
	base    string
	engine  string
	opts    store.RemoteOptions
	retries atomic.Int64

	listMu  sync.Mutex
	listTag string         // ETag of list; "" offers nothing
	list    []CampaignInfo // never handed out: callers get copies
}

// conditional carries a conditional GET through do: the tag offered as
// If-None-Match, and the answer's ETag and whether it was 304.
type conditional struct {
	tag         string
	etag        string
	notModified bool
}

// NewClient returns a coordinator client for the service at baseURL,
// fenced to the given engine version. opts may be nil; zero fields take
// the store transport defaults.
func NewClient(baseURL, engine string, opts *store.RemoteOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("coord: coordinator URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("coord: coordinator URL %q: want http(s)://host[:port]", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), engine: engine}
	if opts != nil {
		c.opts = *opts
	}
	c.opts = c.opts.WithDefaults()
	return c, nil
}

// URL returns the coordinator's base URL.
func (cl *Client) URL() string { return cl.base }

// Options returns the effective (defaults-filled) transport options.
func (cl *Client) Options() store.RemoteOptions { return cl.opts }

// Retries reports how many requests the client re-sent.
func (cl *Client) Retries() int64 { return cl.retries.Load() }

// do runs one coordinator operation under the retry loop and classifies
// the terminal answer. When out is non-nil a 200 body must decode into it
// — a 200 whose body does not parse is a damaged response (truncation,
// bit rot), which is a transport failure of that attempt and retried,
// exactly as the store client treats a damaged envelope. The damaged
// attempt keeps its status and body so an exhausted budget reports what
// the server actually said, not "status 0". cond, when non-nil, makes the
// request conditional: a 304 is a success only if cond offered a tag —
// one answering a request that offered none is damaged the same way, and
// never passes for an empty answer — and a 200 must hash to its ETag,
// since a damaged body kept under an honest tag would be served from the
// client's copy until the listing next changed.
func (cl *Client) do(ctx context.Context, method, op string, body []byte, cond *conditional, out any) error {
	res, exhausted := cl.opts.Retry(ctx, func(ctx context.Context) store.Attempt {
		a := cl.send(ctx, method, op, body, cond)
		switch {
		case a.Err != nil:
		case a.Status == http.StatusNotModified && (cond == nil || cond.tag == ""):
			a.Err = errors.New("malformed response: 304 to a request that offered no tag")
		case a.Status == http.StatusOK && cond != nil && cond.etag != "" && cond.etag != contentTag(a.Body):
			a.Err = errors.New("malformed response: body does not hash to its ETag")
		case a.Status == http.StatusOK && out != nil:
			if err := json.Unmarshal(a.Body, out); err != nil {
				a.Err = fmt.Errorf("malformed response: %w", err)
			}
		}
		return a
	}, func() { cl.retries.Add(1) })
	if exhausted {
		if res.Err != nil {
			if res.Status != 0 {
				return fmt.Errorf("coord: %s: retries exhausted (last status %d): %w", op, res.Status, res.Err)
			}
			return fmt.Errorf("coord: %s: retries exhausted: %w", op, res.Err)
		}
		return fmt.Errorf("coord: %s: retries exhausted (last status %d)", op, res.Status)
	}
	return classify(op, res)
}

// call POSTs one campaign-scoped coordinator operation.
func (cl *Client) call(ctx context.Context, campaign, op string, req leaseRequest, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("coord: encoding %s request: %w", op, err)
	}
	return cl.do(ctx, http.MethodPost, campaign+"/"+op, body, nil, out)
}

// send issues one request and reads a size-capped body. With cond it
// offers cond's tag and records the answer's ETag and 304-ness in cond.
func (cl *Client) send(ctx context.Context, method, op string, body []byte, cond *conditional) store.Attempt {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+coordPathPrefix+op, reader)
	if err != nil {
		return store.Attempt{Err: err}
	}
	req.Header.Set(engineHeader, cl.engine)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cond != nil && cond.tag != "" {
		req.Header.Set("If-None-Match", cond.tag)
	}
	resp, err := cl.opts.Client.Do(req)
	if err != nil {
		return store.Attempt{Err: err}
	}
	defer resp.Body.Close()
	if cond != nil {
		cond.etag = resp.Header.Get("ETag")
		cond.notModified = resp.StatusCode == http.StatusNotModified
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBody+1))
	if err != nil {
		return store.Attempt{Err: err}
	}
	return store.Attempt{Status: resp.StatusCode, Body: data}
}

// classify turns a terminal non-2xx attempt into the caller-facing error.
func classify(op string, res store.Attempt) error {
	switch res.Status {
	case http.StatusOK, http.StatusNotModified:
		return nil
	case StatusLeaseLost:
		return ErrLeaseLost
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrNoCampaign, op)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("coord: %s: coordinator runs a different engine: %s", op, strings.TrimSpace(string(res.Body)))
	default:
		return fmt.Errorf("coord: %s: status %d: %s", op, res.Status, strings.TrimSpace(string(res.Body)))
	}
}

// Campaigns lists the coordinator's tenancy in submission order. The
// request offers the tag of the last listing received; a 304 means that
// listing is still current. The caller always gets its own copy, free to
// modify.
func (cl *Client) Campaigns(ctx context.Context) ([]CampaignInfo, error) {
	cl.listMu.Lock()
	cond := conditional{tag: cl.listTag}
	kept := cl.list
	cl.listMu.Unlock()
	var infos []CampaignInfo
	if err := cl.do(ctx, http.MethodGet, "campaigns", nil, &cond, &infos); err != nil {
		return nil, err
	}
	if cond.notModified {
		return copyInfos(kept), nil
	}
	cl.listMu.Lock()
	cl.listTag, cl.list = cond.etag, infos
	cl.listMu.Unlock()
	return copyInfos(infos), nil
}

// copyInfos deep-copies a listing in two allocations: the rows, and one
// backing array every row's Command is a capped window of. The strings
// themselves are immutable and shared.
func copyInfos(src []CampaignInfo) []CampaignInfo {
	out := make([]CampaignInfo, len(src))
	copy(out, src)
	n := 0
	for i := range src {
		n += len(src[i].Command)
	}
	args := make([]string, 0, n)
	for i := range out {
		if out[i].Command == nil {
			continue
		}
		from := len(args)
		args = append(args, out[i].Command...)
		out[i].Command = args[from:len(args):len(args)]
	}
	return out
}

// Submit registers a campaign (idempotently: re-submitting a spec the
// coordinator already holds names the existing campaign, created=false).
// maxAttempts is the per-shard attempt budget; 0 takes the coordinator's
// default, and it is not part of the campaign's identity — resubmitting
// with a different budget names the existing campaign under its original
// one.
func (cl *Client) Submit(ctx context.Context, command []string, shards, maxAttempts int) (id string, created bool, err error) {
	body, err := json.Marshal(submitRequest{Command: command, Shards: shards, MaxAttempts: maxAttempts})
	if err != nil {
		return "", false, fmt.Errorf("coord: encoding submit request: %w", err)
	}
	var sr submitResponse
	if err := cl.do(ctx, http.MethodPost, "campaigns", body, nil, &sr); err != nil {
		return "", false, err
	}
	return sr.ID, sr.Created, nil
}

// GC asks the coordinator to retire superseded completed campaign
// generations, keeping the newest keep per command.
func (cl *Client) GC(ctx context.Context, keep int, dryRun bool) (GCResult, error) {
	body, err := json.Marshal(gcRequest{Keep: keep, DryRun: dryRun})
	if err != nil {
		return GCResult{}, fmt.Errorf("coord: encoding gc request: %w", err)
	}
	var res GCResult
	if err := cl.do(ctx, http.MethodPost, "gc", body, nil, &res); err != nil {
		return GCResult{}, err
	}
	return res, nil
}

// Lease asks for a shard of the campaign. The returned state is Granted
// (the Grant is valid), Wait (poll again after a beat, or try another
// campaign), Done (campaign complete), or Failed (campaign terminally
// failed — move on exactly as for Done).
func (cl *Client) Lease(ctx context.Context, campaign, worker string) (Grant, LeaseState, error) {
	var lr leaseResponse
	if err := cl.call(ctx, campaign, "lease", leaseRequest{Worker: worker}, &lr); err != nil {
		return Grant{}, Wait, err
	}
	switch lr.State {
	case "granted":
		return Grant{Shard: lr.Shard, Count: lr.Count, Command: lr.Command,
			LeaseID: lr.LeaseID, TTL: time.Duration(lr.TTLMS) * time.Millisecond}, Granted, nil
	case "done":
		return Grant{}, Done, nil
	case "failed":
		return Grant{}, Failed, nil
	case "wait":
		return Grant{}, Wait, nil
	default:
		return Grant{}, Wait, fmt.Errorf("coord: lease: unknown state %q", lr.State)
	}
}

// Heartbeat extends a lease; ErrLeaseLost means the shard is no longer
// this worker's and the run should be abandoned.
func (cl *Client) Heartbeat(ctx context.Context, campaign, worker, leaseID string, shard int) error {
	return cl.call(ctx, campaign, "heartbeat", leaseRequest{Worker: worker, LeaseID: leaseID, Shard: shard}, nil)
}

// Release hands a leased shard back (the drain path). Idempotent.
func (cl *Client) Release(ctx context.Context, campaign, worker, leaseID string, shard int) error {
	return cl.call(ctx, campaign, "release", leaseRequest{Worker: worker, LeaseID: leaseID, Shard: shard}, nil)
}

// Complete uploads a finished shard artifact. The lease need not still be
// live — deterministic artifacts make late and duplicate completions
// safe. campaignDone reports whether this completion finished the
// campaign, allDone whether it finished every campaign the coordinator
// holds, allTerminal whether every campaign is complete or terminally
// failed — which matters under -exit-when-done: the coordinator may be
// gone before the worker's next poll could say so.
func (cl *Client) Complete(ctx context.Context, campaign, worker, leaseID string, shard int, artifact []byte) (campaignDone, allDone, allTerminal bool, err error) {
	var lr leaseResponse
	err = cl.call(ctx, campaign, "complete", leaseRequest{Worker: worker, LeaseID: leaseID,
		Shard: shard, Artifact: json.RawMessage(artifact)}, &lr)
	if err != nil {
		return false, false, false, err
	}
	return lr.State == "done", lr.AllDone, lr.AllTerminal, nil
}

// Fail reports a structured shard failure: the lease is released, the
// attempt is consumed, and the report (error text plus a truncated
// stderr/panic excerpt) is recorded against the shard. quarantined
// reports whether this failure exhausted the shard's attempt budget,
// campaignFailed whether the campaign is now terminally failed, and
// allTerminal whether every campaign the coordinator holds is complete
// or failed — the fleet-wide drain signal. ErrLeaseLost means the shard
// was already re-leased; the report is dropped and the worker just moves
// on.
func (cl *Client) Fail(ctx context.Context, campaign, worker, leaseID string, shard int, errText, excerpt string) (quarantined, campaignFailed, allTerminal bool, err error) {
	var lr leaseResponse
	err = cl.call(ctx, campaign, "fail", leaseRequest{Worker: worker, LeaseID: leaseID,
		Shard: shard, Error: errText, Excerpt: excerpt}, &lr)
	if err != nil {
		return false, false, false, err
	}
	return lr.Quarantined, lr.CampaignFailed, lr.AllTerminal, nil
}

// Status fetches one campaign's snapshot.
func (cl *Client) Status(ctx context.Context, campaign string) (Status, error) {
	var st Status
	err := cl.do(ctx, http.MethodGet, campaign+"/status", nil, nil, &st)
	return st, err
}
