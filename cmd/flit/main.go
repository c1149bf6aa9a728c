// Command flit is the reproduction's command-line interface: it runs the
// FLiT compilation matrix over the MFEM examples, root-causes variability
// with Bisect, and regenerates every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	flit run [-j N] [-test ExampleNN]        run the 244-compilation matrix
//	flit bisect [-j N] -test ExampleNN -comp "g++ -O3 -mavx2 -mfma" [-k N]
//	flit experiments [-j N] <table1|figure4|figure5|figure6|table2|table3|
//	                  findings|motivation|table4|laghos-nan|table5|mpi|
//	                  sweep|all>
//	flit merge [-j N] shard0.json shard1.json ...
//	flit delta -baseline a.json[,b.json...] [-delta-out report.json] new0.json ...
//	flit gc -dir DIR [-keep N] [-dry-run] [-warm-start a.json,b.json]
//	flit store stats -store DIR
//	flit store gc -store DIR [-max-entries N] [-max-bytes N] [-dry-run]
//	flit store serve -dir DIR [-addr HOST:PORT]
//	flit coord serve -dir DIR [-command "experiments sweep" -shards N]
//	                 [-addr HOST:PORT] [-lease-ttl D] [-exit-when-done]
//	flit coord submit -coord URL -command "experiments sweep" -shards N
//	flit coord status -coord URL [-campaign ID]
//	flit coord gc -coord URL [-keep N] [-dry-run]
//	flit work -coord URL [-j N] [-name ID] [-store DIR]
//
// "sweep" renders the sampled end-to-end digest of every subsystem on a
// fresh engine — the determinism witness the equivalence tests compare
// across -j values. It is not part of "all" (which already regenerates
// each full artifact individually).
//
// Every subcommand accepts -j N: the number of (compilation, test)
// evaluations executed concurrently by the parallel engine (0, the
// default, means one per CPU; 1 reproduces the paper's sequential order).
// Results are bit-identical at every -j.
//
// Distributed runs: -shard i/N partitions the deterministic job index
// space of a subcommand across N cooperating invocations (machines). A
// shard executes only its slice of the expensive evaluations and writes a
// self-describing JSON artifact (-shard-out) instead of the normal output.
// `flit merge` validates that the artifacts form a complete shard set from
// the same engine version and command, imports their union into a fresh
// engine's cache as read-only records, and replays the recorded command —
// producing output byte-identical to an unsharded run.
//
// Observability: -stats prints build/run-cache hit/miss/eviction counters
// and the bisect engine's execution counters (paper count vs speculative
// extra) to stderr after the run; -cache-cap M bounds the memoized run
// results to M entries with LRU eviction (0 = unbounded) so long-lived
// runs do not grow memory without bound.
//
// Incremental runs: -warm-start a.json,b.json imports previously exported
// shard artifacts into the engine's cache before the run. Unlike merge,
// no complete shard set is required — any artifacts from this engine
// version will do; covered evaluations are answered from the imported
// records, everything else is recomputed, and the output is
// byte-identical to a cold run. Imported records never enter the memo, so
// -cache-cap never evicts them, and a warm-started shard exports exactly
// the records its run asked for.
//
// Persistence: -store DIR attaches an on-disk content-addressed run store
// as the cache's second tier. Every in-memory miss consults the store by
// plan key before building anything, and every fresh computation is
// written through — so a second process pointed at the same DIR serves
// covered evaluations with zero materialized builds, no -warm-start
// manifest required. The store is fenced to this build's engine version
// (a foreign store is rejected at startup), writes are atomic, and
// corrupt or truncated entries are treated as misses and recomputed,
// never replayed. `flit store stats` reports entry count, bytes, and
// corruption; `flit store gc` prunes corrupt files and the oldest entries
// down to -max-entries/-max-bytes.
//
// Remote stores: `flit store serve -dir DIR -addr HOST:PORT` exposes a
// Disk store over HTTP, and -remote URL on any subcommand attaches it as
// a persistent tier — the cross-machine form of -store, with the same
// engine fencing (per request, via headers) and corruption-as-miss
// discipline (every envelope is SHA-256 re-validated client-side).
// Transport faults are retried with exponential backoff and degrade to
// cache misses when exhausted, so a dead server costs recomputation,
// never a wrong result and never a failed campaign. -store DIR composes
// with -remote URL as a local read-through/write-through cache in front
// of the shared server; -stats adds a "remote:" traffic line. The
// transport is tuned with -remote-retries N (attempts per request) and
// -remote-timeout D (per-operation deadline), which require -remote (or
// -coord) and are reported back as effective values by -stats.
//
// Distributed campaigns: `flit coord serve` owns a *set* of campaigns —
// each a recorded command, a shard count, and the engine version, keyed
// by a campaign ID derived from exactly those coordinates — and `flit
// work -coord URL` workers lease shard indices from it instead of being
// assigned them by hand, draining one campaign and picking up the next.
// Campaigns are submitted at boot (-command/-shards) or while the
// coordinator runs (`flit coord submit`); submission is idempotent by
// spec. Leases are time-bounded and renewed by heartbeat; a worker that
// crashes or stalls stops heartbeating and its shard is re-leased to the
// next worker that asks — and only a lease request reclaims, so `flit
// coord status` (the fleet view, or one campaign's per-lease detail with
// -campaign) is a pure read that never disturbs scheduling. Completions
// are last-writer-wins — shard artifacts are deterministic and
// unstamped, so duplicate or late uploads carry identical bytes and are
// accepted idempotently. The coordinator journals its state atomically
// before every acknowledgment; restarting it with the same -dir resumes
// every campaign exactly (a journal of another format version is refused,
// untouched). The same mux serves the object-store protocol, so workers
// write runs through to the coordinator's shared store and a re-leased
// shard replays its predecessor's finished cells as warm hits — across
// campaigns too, because store keys are injective over the same
// coordinates that name a campaign. On each campaign's final completion
// the coordinator validates its artifact set server-side;
// -exit-when-done exits 0 once every submitted campaign has. `flit
// coord gc` retires superseded completed generations (same command,
// older submission) server-side, inside the journal's ownership
// boundary. SIGINT/SIGTERM drain cleanly on both sides: the coordinator
// and store server stop accepting, finish in-flight requests, and exit
// 0; a worker cancels its scheduling polls immediately but finishes and
// reports the shard it is running, then exits 0.
//
// Incremental campaigns: with -warm-start in effect, -delta-out FILE
// writes a structured DeltaReport after the run — which build/run keys are
// new against the warmed baseline, which baseline keys were dropped, and
// (under -delta-verify, which recomputes covered evaluations instead of
// trusting them) which values diverged bit-exactly; -stats adds a one-line
// delta summary on stderr. `flit delta` computes the same report offline
// between two artifact sets, without re-running anything, and `flit gc`
// prunes superseded artifact generations from a campaign directory —
// grouped by (engine version, command, shard), keeping the newest -keep
// files per slot and never touching files named by its -warm-start list.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errParsed marks flag-parse failures the flag package has already
// reported on stderr, so run does not print them a second time.
var errParsed = errors.New("flag parse error")

// errHelp marks an explicit -h/-help request: usage was printed and the
// invocation succeeded.
var errHelp = errors.New("help requested")

// run dispatches a CLI invocation and returns its exit code: 0 on success,
// 1 on a runtime error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(args[1:], stdout, stderr)
	case "bisect":
		err = cmdBisect(args[1:], stdout, stderr)
	case "experiments":
		err = cmdExperiments(args[1:], stdout, stderr)
	case "merge":
		err = cmdMerge(args[1:], stdout, stderr)
	case "delta":
		err = cmdDelta(args[1:], stdout, stderr)
	case "gc":
		err = cmdGc(args[1:], stdout, stderr)
	case "store":
		err = cmdStore(args[1:], stdout, stderr)
	case "coord":
		err = cmdCoord(args[1:], stdout, stderr)
	case "work":
		err = cmdWork(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errHelp):
		return 0
	case errors.Is(err, errParsed):
		return 2
	default:
		fmt.Fprintln(stderr, "flit:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  flit run [-j N] [-test ExampleNN]
  flit bisect [-j N] -test ExampleNN -comp "g++ -O3 -mavx2 -mfma" [-k N]
  flit experiments [-j N] <name|all>
  flit merge [-j N] shard0.json shard1.json ...
  flit delta -baseline a.json[,b.json...] [-delta-out report.json] new0.json ...
  flit gc -dir DIR [-keep N] [-dry-run] [-warm-start a.json,b.json]
  flit store stats -store DIR
  flit store gc -store DIR [-max-entries N] [-max-bytes N] [-dry-run]
  flit store serve -dir DIR [-addr HOST:PORT]
  flit coord serve -dir DIR [-command "experiments sweep" -shards N]
                   [-addr HOST:PORT] [-lease-ttl D] [-exit-when-done]
  flit coord submit -coord URL -command "experiments sweep" -shards N
  flit coord status -coord URL [-campaign ID]
  flit coord gc -coord URL [-keep N] [-dry-run]
  flit work -coord URL [-j N] [-name ID] [-store DIR]

experiment names: table1 figure4 figure5 figure6 table2 table3 findings
  motivation table4 laghos-nan table5 mpi, or "sweep" for the sampled
  end-to-end digest of every subsystem

-j N runs up to N evaluations in parallel (0 = one per CPU, 1 = the
paper's sequential order); output is bit-identical at every -j.

-shard i/N executes one shard of the deterministic job index space and
writes a JSON result artifact to -shard-out FILE instead of the normal
output; "flit merge" reassembles a complete artifact set into output
byte-identical to the unsharded run. -warm-start a.json,b.json imports
prior artifacts (no complete set required) before running; with it,
-delta-out FILE writes the run's DeltaReport (new/dropped/changed keys vs
the warmed baseline) and -delta-verify recomputes covered evaluations to
detect bit-exact divergence instead of trusting them. -stats prints cache
and bisect execution counters (plus the delta summary when warm-started)
to stderr; -cache-cap M bounds resident computed run results with LRU
eviction (0 = unbounded; imported records are never evicted).

-store DIR attaches a persistent on-disk run store as the cache's second
tier: in-memory misses are answered from DIR before any build happens and
fresh results are written through, so a later process pointed at the same
DIR replays covered evaluations with zero builds and no -warm-start
manifest. The store is fenced to this build's engine version; corrupt
entries read as misses and are recomputed. "flit store stats" and "flit
store gc" inspect and prune a store directory.

-remote URL attaches a run store served by "flit store serve" (the
cross-machine form of -store): engine-fenced per request, every envelope
SHA-256 re-validated client-side, transport faults retried with backoff
and degraded to cache misses when exhausted — a dead server never fails a
campaign. Composes with -store DIR as a local read-through/write-through
cache in front of the server; -stats adds a "remote:" traffic line.
-remote-retries N and -remote-timeout D tune the transport (they require
-remote or -coord; -stats reports the effective values).

"flit coord serve" owns a set of campaigns (each keyed by an ID derived
from engine, command, and shard count) and leases their shard indices to
"flit work -coord URL" workers over time-bounded, heartbeat-renewed
leases: a crashed or stalled worker's shard is re-leased, duplicate or
late completions are accepted idempotently (artifacts are deterministic),
and the journaled coordinator resumes every campaign exactly after a
restart with the same -dir (journals of other format versions are refused).
"flit coord submit" registers campaigns while it runs (idempotent by
spec); workers drain one campaign, then pick up the next. "flit coord
status" renders the fleet view (or one campaign's leases with -campaign)
as a pure read — it never reclaims a lease. "flit coord gc" retires
superseded completed generations server-side. The coordinator's mux also
serves the object-store protocol, so workers share one URL for
scheduling and run write-through. SIGTERM drains both sides cleanly
(exit 0); -exit-when-done exits once every campaign's completed artifact
set validates server-side.

"flit delta" diffs two artifact sets offline (no re-running): each set is
validated like merge; "flit gc" prunes superseded artifact generations
per (engine, command, shard) slot, keeping the newest -keep of each and
never touching files listed in its -warm-start manifest.`)
}

// cliOpts carries the engine-shaping flags shared by every subcommand.
type cliOpts struct {
	j           *int
	shardStr    *string
	shardOut    *string
	stats       *bool
	cacheCap    *int
	warmStart   *string
	deltaOut    *string
	deltaVerify *bool
	storeDir    *string
	remoteURL   *string
	// remoteRetries/remoteTimeout are the shared transport knobs: they
	// shape every client that speaks the store's retry discipline, whether
	// it points at a -remote object store or (in `flit work`) a -coord
	// coordinator. 0 selects the production default.
	remoteRetries *int
	remoteTimeout *time.Duration
	// remote is the attached Remote backend (set by attachStore when
	// -remote is given); printStats reads its transport counters.
	remote *store.Remote
}

// newFlagSet builds a subcommand flag set that reports parse errors back
// to the caller instead of exiting the process, with the shared engine
// knobs (-j, -shard, -shard-out, -stats, -cache-cap).
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *cliOpts) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &cliOpts{
		j:        fs.Int("j", 0, "parallel evaluations (0 = one per CPU, 1 = sequential)"),
		shardStr: fs.String("shard", "", `execute one shard "i/N" of the job index space and write an artifact`),
		shardOut: fs.String("shard-out", "", "artifact file a -shard run writes (required with -shard)"),
		stats:    fs.Bool("stats", false, "print cache and bisect execution counters to stderr"),
		cacheCap: fs.Int("cache-cap", 0, "max resident memoized run results, LRU-evicted (0 = unbounded)"),
		warmStart: fs.String("warm-start", "",
			"comma-separated shard artifacts whose results are imported before the run (no complete set required)"),
		deltaOut: fs.String("delta-out", "",
			"write the run's DeltaReport vs the -warm-start baseline to FILE (JSON)"),
		deltaVerify: fs.Bool("delta-verify", false,
			"recompute baseline-covered evaluations and report bit-exact divergence instead of trusting them"),
		storeDir: fs.String("store", "",
			"persistent run-store directory: misses consult it before building, results are written through"),
		remoteURL: fs.String("remote", "",
			"remote run-store URL (flit store serve): the cross-machine -store; composes with -store DIR as a local cache tier"),
	}
	o.remoteRetries, o.remoteTimeout = addTransportFlags(fs)
	return fs, o
}

// addTransportFlags registers the shared remote-transport knobs on fs —
// the same two flags tune -remote object-store clients and the `flit
// work` coordinator client, because both speak the same retry/backoff
// discipline.
func addTransportFlags(fs *flag.FlagSet) (*int, *time.Duration) {
	retries := fs.Int("remote-retries", 0,
		"total attempts per remote request, first try included (0 = the default 4)")
	timeout := fs.Duration("remote-timeout", 0,
		"deadline for one remote operation across all its retries (0 = the default 30s)")
	return retries, timeout
}

// transportOptions validates the shared knobs and builds the options both
// -remote and -coord clients run with.
func transportOptions(retries int, timeout time.Duration) (*store.RemoteOptions, error) {
	if retries < 0 {
		return nil, errors.New("-remote-retries must be >= 0 (0 selects the default)")
	}
	if timeout < 0 {
		return nil, errors.New("-remote-timeout must be >= 0 (0 selects the default)")
	}
	return &store.RemoteOptions{Attempts: retries, Deadline: timeout}, nil
}

// readArtifacts loads a list of artifact files, skipping empty entries
// (comma-split flag values may contain them).
func readArtifacts(paths []string) ([]*flit.Artifact, error) {
	arts := make([]*flit.Artifact, 0, len(paths))
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		a, err := flit.ReadArtifactFile(p)
		if err != nil {
			return nil, err
		}
		arts = append(arts, a)
	}
	return arts, nil
}

// loadWarmStart imports the -warm-start artifact list into an engine's
// cache. Unlike merge it tolerates any subset of artifacts — warm-starting
// reuses results, it does not replay a command.
func (o *cliOpts) loadWarmStart(eng *experiments.Engine) error {
	if *o.warmStart == "" {
		return nil
	}
	if *o.cacheCap <= 0 {
		// Warm starts track provenance: -stats can then summarize the
		// delta, and -delta-out can write the structured report. Not under
		// -cache-cap, though — eviction forgets computed entries, so the
		// delta would misreport them; checkDeltaFlags already rejected the
		// explicit delta flags, and a capped warm start simply reports no
		// delta at all.
		eng.EnableDelta(*o.deltaVerify)
	}
	arts, err := readArtifacts(strings.Split(*o.warmStart, ","))
	if err != nil {
		return fmt.Errorf("-warm-start: %w", err)
	}
	return eng.WarmStart(arts...)
}

// parseFlags parses and maps failures to errParsed (the FlagSet has
// already written the diagnostic to stderr) and -h to errHelp (usage was
// printed; the invocation succeeded).
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return errHelp
	default:
		return fmt.Errorf("%w: %v", errParsed, err)
	}
}

// shardMode reports whether the user asked for a shard run at all —
// including the degenerate but valid "0/1", which executes everything and
// exports a single-artifact set that `flit merge` accepts as the N=1
// partition.
func (o *cliOpts) shardMode() bool { return *o.shardStr != "" }

// engine builds the engine a subcommand runs on, honoring -j, -cache-cap,
// and -shard.
func (o *cliOpts) engine() (*experiments.Engine, error) {
	shard, err := exec.ParseShard(*o.shardStr)
	if err != nil {
		return nil, err
	}
	if o.shardMode() {
		if *o.shardOut == "" {
			return nil, errors.New("-shard requires -shard-out FILE")
		}
		if *o.cacheCap > 0 {
			// Eviction would silently drop results from the exported
			// artifact; a shard's whole product is its complete cache.
			return nil, errors.New("-cache-cap cannot be combined with -shard (evicted results would be missing from the artifact)")
		}
	}
	if err := o.checkDeltaFlags(); err != nil {
		return nil, err
	}
	eng := experiments.NewEngineCap(*o.j, *o.cacheCap)
	eng.SetShard(shard)
	if err := o.attachStore(eng); err != nil {
		return nil, err
	}
	if err := o.loadWarmStart(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// checkDeltaFlags rejects delta-flag combinations that could not produce a
// truthful report: no baseline to delta against, or an evicting cache that
// forgets the provenance the report is built from.
func (o *cliOpts) checkDeltaFlags() error {
	if (*o.deltaOut != "" || *o.deltaVerify) && *o.warmStart == "" {
		return errors.New("-delta-out/-delta-verify require -warm-start BASELINE_ARTIFACTS")
	}
	if (*o.deltaOut != "" || *o.deltaVerify) && *o.cacheCap > 0 {
		return errors.New("-delta-out/-delta-verify cannot be combined with -cache-cap (evicted entries would be misreported as dropped)")
	}
	if *o.deltaVerify && *o.storeDir != "" {
		// Verify mode exists to recompute covered evaluations; a store hit
		// would replay a persisted value and report it as a recomputation.
		return errors.New("-delta-verify cannot be combined with -store (store hits would replay results instead of recomputing them)")
	}
	if *o.deltaVerify && *o.remoteURL != "" {
		// Same reason one tier further out: a remote hit is a replay too.
		return errors.New("-delta-verify cannot be combined with -remote (remote hits would replay results instead of recomputing them)")
	}
	return nil
}

// attachStore builds the engine cache's persistent tier from -store and
// -remote: the local Disk store (opened, creating if absent, rejecting
// one fenced to a different engine version or layout) in front of the
// Remote client when both are given — a read-through/write-through local
// cache for a shared server — or either alone. A no-op without both.
func (o *cliOpts) attachStore(eng *experiments.Engine) error {
	var tiers []store.Store
	if *o.storeDir != "" {
		d, err := store.Open(*o.storeDir, flit.EngineVersion)
		if err != nil {
			return err
		}
		tiers = append(tiers, d)
	}
	opts, err := transportOptions(*o.remoteRetries, *o.remoteTimeout)
	if err != nil {
		return err
	}
	if *o.remoteURL == "" && (*o.remoteRetries != 0 || *o.remoteTimeout != 0) {
		return errors.New("-remote-retries/-remote-timeout require -remote URL")
	}
	if *o.remoteURL != "" {
		r, err := store.NewRemote(*o.remoteURL, flit.EngineVersion, opts)
		if err != nil {
			return err
		}
		o.remote = r
		tiers = append(tiers, r)
	}
	eng.AttachStoreTiers(tiers...)
	return nil
}

// emitDelta writes the warm-started run's DeltaReport (-delta-out) and its
// one-line summary (-stats, on stderr). A no-op without a warmed baseline.
func emitDelta(eng *experiments.Engine, o *cliOpts, command []string, stderr io.Writer) error {
	if !eng.DeltaEnabled() {
		return nil
	}
	rep, err := eng.DeltaReport(command)
	if err != nil {
		return err
	}
	if *o.stats {
		fmt.Fprintln(stderr, rep.Summary())
	}
	if *o.deltaOut != "" {
		return flit.WriteDeltaReportFile(rep, *o.deltaOut)
	}
	return nil
}

// execute runs a subcommand's renderer through the shard/stats plumbing.
// Unsharded, the renderer writes its normal output to stdout. Sharded, the
// rendering is discarded — a shard's product is the artifact holding every
// build/run result it computed, written to -shard-out, with a one-line
// receipt on stdout. command is the canonical replay command recorded in
// the artifact for `flit merge`.
func execute(eng *experiments.Engine, o *cliOpts, command []string,
	render func(w io.Writer) error, stdout, stderr io.Writer) error {
	out := stdout
	if o.shardMode() {
		out = io.Discard
	}
	err := render(out)
	if *o.stats {
		o.printStats(eng, stderr)
	}
	if err != nil {
		return err
	}
	if err := emitDelta(eng, o, command, stderr); err != nil {
		return err
	}
	if o.shardMode() {
		art := eng.ExportArtifact(command)
		art.Stamp()
		if err := flit.WriteArtifactFile(art, *o.shardOut); err != nil {
			return fmt.Errorf("writing shard artifact: %w", err)
		}
		fmt.Fprintf(stdout, "shard %s of %q: %d runs, %d costs -> %s\n",
			eng.Shard(), strings.Join(command, " "), len(art.Runs), len(art.Costs), *o.shardOut)
	}
	return nil
}

func (o *cliOpts) printStats(eng *experiments.Engine, w io.Writer) {
	m := eng.CacheMetrics()
	fmt.Fprintf(w, "cache runs:  hits=%d misses=%d evictions=%d entries=%d cap=%d\n",
		m.Runs.Hits, m.Runs.Misses, m.Runs.Evictions, m.Runs.Entries, m.Runs.Capacity)
	fmt.Fprintf(w, "cache costs: hits=%d misses=%d evictions=%d entries=%d cap=%d\n",
		m.Costs.Hits, m.Costs.Misses, m.Costs.Evictions, m.Costs.Entries, m.Costs.Capacity)
	// Key-first build accounting: builds is how many executables this run
	// actually linked, skipped-builds how many plans were answered entirely
	// from the cache without ever materializing — on a fully warm-started
	// run, builds=0 and every covered cell lands in skipped-builds.
	fmt.Fprintf(w, "builds: materialized=%d skipped-builds=%d\n", m.Builds, m.SkippedBuilds)
	if m.Store.Enabled {
		// The persistent tier's traffic: hits are evaluations answered from
		// disk without building; errors count undecodable entries and failed
		// write-throughs (a store that is rotting or has stopped persisting).
		fmt.Fprintf(w, "store: hits=%d misses=%d puts=%d errors=%d\n",
			m.Store.Hits, m.Store.Misses, m.Store.Puts, m.Store.Errors)
	}
	if o.remote != nil {
		// The remote tier's own transport counters: retries are the re-sent
		// requests the backoff loop spent, errors the degraded (non-honest)
		// misses and failed uploads — a flaky or dying server shows up here
		// while the run itself stays correct.
		rm := o.remote.Metrics()
		fmt.Fprintf(w, "remote: hits=%d misses=%d puts=%d retries=%d errors=%d\n",
			rm.Hits, rm.Misses, rm.Puts, rm.Retries, rm.Errors)
		// The effective transport shape (defaults filled in), so a tuned
		// -remote-retries/-remote-timeout is visible in the run record.
		ro := o.remote.Options()
		fmt.Fprintf(w, "remote config: attempts=%d attempt-timeout=%s timeout=%s\n",
			ro.Attempts, ro.AttemptTimeout, ro.Deadline)
	}
	// paper-execs is the Tables 2/4 cost measure and is identical at every
	// -j; spec-execs is the speculative extra (timing-dependent) those
	// searches spent to finish sooner.
	bs := eng.BisectStats()
	fmt.Fprintf(w, "bisect: searches=%d paper-execs=%d spec-execs=%d\n",
		bs.Searches, bs.Execs, bs.SpecExecs)
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet("run", stderr)
	test := fs.String("test", "", "restrict output to one test (e.g. Example05)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	eng, err := o.engine()
	if err != nil {
		return err
	}
	command := []string{"run"}
	if *test != "" {
		command = append(command, "-test", *test)
	}
	return execute(eng, o, command, func(w io.Writer) error {
		return experiments.RenderRun(eng, *test, w)
	}, stdout, stderr)
}

func cmdBisect(args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet("bisect", stderr)
	test := fs.String("test", "", "test name (e.g. Example13)")
	compStr := fs.String("comp", "", "variable compilation, e.g. 'g++ -O3 -mavx2 -mfma'")
	k := fs.Int("k", 0, "find only the top-k contributors (0 = all, with verification)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *test == "" || *compStr == "" {
		return fmt.Errorf("bisect requires -test and -comp")
	}
	variable, err := experiments.ParseCompilation(*compStr)
	if err != nil {
		return err
	}
	eng, err := o.engine()
	if err != nil {
		return err
	}
	// The canonical compilation string (variable.String round-trips through
	// parseCompilation) keeps the recorded command whitespace-independent.
	command := []string{"bisect", "-test", *test, "-comp", variable.String(), "-k", strconv.Itoa(*k)}
	return execute(eng, o, command, func(w io.Writer) error {
		return experiments.RenderBisect(eng, *test, variable, *k, eng.Shard(), w)
	}, stdout, stderr)
}

func cmdExperiments(args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet("experiments", stderr)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	eng, err := o.engine()
	if err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 || names[0] == "all" {
		names = []string{"table1", "figure4", "figure5", "figure6", "table3",
			"findings", "motivation", "table4", "laghos-nan", "table2", "table5", "mpi"}
	}
	command := append([]string{"experiments"}, names...)
	return execute(eng, o, command, func(w io.Writer) error {
		return experiments.RenderExperiments(eng, names, w)
	}, stdout, stderr)
}

// cmdMerge reassembles a complete set of shard artifacts: it validates
// that they share this build's engine version and one command and cover
// every shard index, imports their union into a fresh engine's cache, and
// replays the recorded command — every expensive evaluation is answered
// from the imported records, and the output is byte-identical to an
// unsharded run.
func cmdMerge(args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet("merge", stderr)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *o.shardStr != "" || *o.shardOut != "" {
		return errors.New("merge does not accept -shard/-shard-out (it replays a complete shard set)")
	}
	arts, err := readArtifacts(fs.Args())
	if err != nil {
		return err
	}
	if len(arts) == 0 {
		return errors.New("merge requires at least one shard artifact file")
	}
	if err := o.checkDeltaFlags(); err != nil {
		return err
	}
	eng := experiments.NewEngineCap(*o.j, *o.cacheCap)
	// -store composes with merge: any evaluation the shard set does not
	// cover is answered from (and written through to) the store. Imported
	// shard results themselves are never written through — they are not
	// computations of this process.
	if err := o.attachStore(eng); err != nil {
		return err
	}
	if err := eng.ImportArtifacts(arts...); err != nil {
		return err
	}
	// -warm-start composes with merge: extra artifacts (e.g. yesterday's
	// campaign) are imported on top of the shard set, and with
	// -delta-out/-stats the replay is also diffed against them.
	if err := o.loadWarmStart(eng); err != nil {
		return err
	}
	err = experiments.RunCommand(eng, arts[0].Command, stdout)
	if *o.stats {
		o.printStats(eng, stderr)
	}
	if err != nil {
		return err
	}
	return emitDelta(eng, o, arts[0].Command, stderr)
}

// cmdDelta diffs two artifact sets offline: the -baseline set against the
// positional current set, each validated like a merge input (this build's
// engine version, one command, complete shard partition). Nothing is
// re-run; the report is rendered to stdout and optionally written as JSON.
func cmdDelta(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("delta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "comma-separated baseline artifact set (required)")
	deltaOut := fs.String("delta-out", "", "also write the DeltaReport to FILE (JSON)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *baseline == "" {
		return errors.New("delta requires -baseline a.json[,b.json...]")
	}
	base, err := readArtifacts(strings.Split(*baseline, ","))
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	cur, err := readArtifacts(fs.Args())
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return errors.New("delta requires at least one current artifact file")
	}
	rep, err := flit.DiffArtifacts(base, cur)
	if err != nil {
		return err
	}
	rep.Render(stdout)
	if *deltaOut == "" {
		return nil
	}
	return flit.WriteDeltaReportFile(rep, *deltaOut)
}

// cmdGc prunes superseded artifact generations from a campaign directory.
// Artifacts are grouped by (engine version, command, shard slot); the
// newest -keep files of each slot survive, files listed in -warm-start are
// never touched, and files that do not parse as artifacts are skipped.
func cmdGc(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "artifact directory to collect (required)")
	keep := fs.Int("keep", 1, "generations to keep per (engine, command, shard) slot")
	dryRun := fs.Bool("dry-run", false, "plan and report only; delete nothing")
	manifest := fs.String("warm-start", "", "comma-separated artifacts a live campaign still warm-starts from; never pruned")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("gc requires -dir DIR")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("gc takes no positional arguments (got %q)", fs.Args())
	}
	protect := make(map[string]bool)
	for _, p := range strings.Split(*manifest, ",") {
		if p = strings.TrimSpace(p); p != "" {
			protect[flit.NormalizePath(p)] = true
		}
	}
	plan, err := flit.PlanGC(*dir, *keep, protect)
	if err != nil {
		return err
	}
	verb := "pruned"
	if *dryRun {
		verb = "would prune"
	}
	for _, p := range plan.Pruned {
		fmt.Fprintf(stdout, "%s %s\n", verb, p)
	}
	for _, p := range plan.Protected {
		fmt.Fprintf(stdout, "protected %s\n", p)
	}
	for _, p := range plan.Skipped {
		fmt.Fprintf(stdout, "skipped %s (not a valid artifact of this engine)\n", p)
	}
	fmt.Fprintf(stdout, "gc: kept=%d %s=%d protected=%d skipped=%d\n",
		len(plan.Kept), strings.ReplaceAll(verb, " ", "-"), len(plan.Pruned), len(plan.Protected), len(plan.Skipped))
	if *dryRun {
		return nil
	}
	return plan.Apply()
}

// cmdStore inspects, maintains, and serves a persistent run-store
// directory: "stats" scans it and reports entry count, bytes, and
// corruption; "gc" prunes corrupt files first, then the oldest entries,
// down to -max-entries/-max-bytes; "serve" exposes it over HTTP for
// -remote clients. All open the store with this build's engine fence, so
// a foreign store is rejected rather than misreported.
func cmdStore(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New(`store requires a subcommand: "stats", "gc", or "serve"`)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "serve":
		return cmdStoreServe(rest, stdout, stderr)
	case "stats":
		fs := flag.NewFlagSet("store stats", flag.ContinueOnError)
		fs.SetOutput(stderr)
		dir := fs.String("store", "", "run-store directory (required)")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		if *dir == "" {
			return errors.New("store stats requires -store DIR")
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("store stats takes no positional arguments (got %q)", fs.Args())
		}
		d, err := store.Open(*dir, flit.EngineVersion)
		if err != nil {
			return err
		}
		st, err := d.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "store %s: engine=%s entries=%d bytes=%d corrupt=%d\n",
			d.Dir(), st.Engine, st.Entries, st.Bytes, st.Corrupt)
		return nil
	case "gc":
		fs := flag.NewFlagSet("store gc", flag.ContinueOnError)
		fs.SetOutput(stderr)
		dir := fs.String("store", "", "run-store directory (required)")
		maxEntries := fs.Int("max-entries", 0, "keep at most N entries, oldest pruned first (0 = unlimited)")
		maxBytes := fs.Int64("max-bytes", 0, "keep at most N payload bytes (0 = unlimited)")
		dryRun := fs.Bool("dry-run", false, "plan and report only; delete nothing")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		if *dir == "" {
			return errors.New("store gc requires -store DIR")
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("store gc takes no positional arguments (got %q)", fs.Args())
		}
		d, err := store.Open(*dir, flit.EngineVersion)
		if err != nil {
			return err
		}
		res, err := d.GC(*maxEntries, *maxBytes, !*dryRun)
		if err != nil {
			return err
		}
		verb := "pruned"
		if *dryRun {
			verb = "would prune"
		}
		for _, p := range res.Pruned {
			fmt.Fprintf(stdout, "%s %s\n", verb, p)
		}
		fmt.Fprintf(stdout, "store gc: kept=%d %s=%d (%d bytes, %d corrupt)\n",
			res.Kept, strings.ReplaceAll(verb, " ", "-"), len(res.Pruned), res.PrunedBytes, res.Corrupt)
		return nil
	default:
		return fmt.Errorf(`unknown store subcommand %q (want "stats", "gc", or "serve")`, sub)
	}
}

// cmdStoreServe exposes a Disk store over HTTP — the serving side of
// -remote. The store is opened with this build's engine fence (so a
// foreign directory is rejected before it can serve anything), the bound
// address is announced on stdout as a full URL (use -addr with port 0 to
// let the OS pick — scripts read the URL off the first line), and the
// process serves until killed. Writes reuse the Disk store's atomic
// discipline; a PUT of a key the store already holds is a no-op.
func cmdStoreServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "Disk store directory to serve (required; created if absent)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("store serve requires -dir DIR")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("store serve takes no positional arguments (got %q)", fs.Args())
	}
	d, err := store.Open(*dir, flit.EngineVersion)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("store serve: %w", err)
	}
	fmt.Fprintf(stdout, "serving %s (engine %s) on http://%s\n", d.Dir(), d.Engine(), ln.Addr())
	return serveGracefully(store.Handler(d), ln, nil, stdout)
}
