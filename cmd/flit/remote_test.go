package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// syncBuffer is a goroutine-safe writer for output produced by an
// in-process `flit store serve` running on its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServe launches `flit store serve` over dir on a free loopback port
// and returns the announced base URL — the same discipline scripts use:
// read the URL off the first stdout line. The server goroutine runs until
// the test binary exits; each caller gets its own listener.
func startServe(t *testing.T, dir string) string {
	t.Helper()
	out := &syncBuffer{}
	go run([]string{"store", "serve", "-dir", dir, "-addr", "127.0.0.1:0"}, out, out)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "on http://") {
			line := s[strings.Index(s, "on http://")+len("on "):]
			return strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("store serve never announced a URL: %q", out.String())
	return ""
}

// TestRemoteFlagCrossMachine: the CLI acceptance pin for the remote tier —
// one `flit store serve` process, and `flit experiments -remote URL` runs
// that share nothing but the URL: the second produces byte-identical
// stdout with zero materialized builds, all hits arriving over the wire.
func TestRemoteFlagCrossMachine(t *testing.T) {
	url := startServe(t, filepath.Join(t.TempDir(), "served"))

	var want, stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "-remote", url, "-stats", "table4"},
		&want, &stderr); code != 0 {
		t.Fatalf("cold run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "remote: hits=0") ||
		!strings.Contains(stderr.String(), "retries=") {
		t.Errorf("cold run -stats missing the remote line:\n%s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-remote", url, "-stats", "table4"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("warm run: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Errorf("remote-warmed output differs from the cold run:\n--- warm ---\n%s\n--- cold ---\n%s",
			stdout.String(), want.String())
	}
	var buildsLine, remoteLine string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "builds:") {
			buildsLine = line
		}
		if strings.HasPrefix(line, "remote:") {
			remoteLine = line
		}
	}
	if !strings.Contains(buildsLine, "materialized=0") {
		t.Errorf("remote-covered run still built executables: %q", buildsLine)
	}
	if remoteLine == "" || strings.Contains(remoteLine, "hits=0") {
		t.Errorf("remote-covered run reported no remote hits: %q", remoteLine)
	}

	// Without -remote there is no remote line at all.
	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-stats", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("remoteless run: exit %d", code)
	}
	if strings.Contains(stderr.String(), "remote:") {
		t.Errorf("remoteless -stats grew a remote line:\n%s", stderr.String())
	}
}

// TestRemoteFlagTieredWithStore: -store DIR -remote URL composes as a
// local read-through cache over the shared server — after one tiered run,
// the local directory alone covers the whole workload.
func TestRemoteFlagTieredWithStore(t *testing.T) {
	url := startServe(t, filepath.Join(t.TempDir(), "served"))
	local := filepath.Join(t.TempDir(), "local")

	var want, stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "-store", local, "-remote", url, "table4"},
		&want, &stderr); code != 0 {
		t.Fatalf("tiered run: exit %d, stderr: %s", code, stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-store", local, "-stats", "table4"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("local-only run: exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want.String() {
		t.Error("local-only output differs from the tiered run")
	}
	if !strings.Contains(stderr.String(), "materialized=0") {
		t.Errorf("write-through did not fill the local tier:\n%s", stderr.String())
	}
}

// TestExperimentRenderersOverSharedStore walks the cheap paper renderers
// through one shared store directory: the first command computes the
// matrix, the rest replay it, so each renderer's output path is exercised
// without recomputing the workload five times.
func TestExperimentRenderersOverSharedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for _, name := range []string{"table1", "figure4", "figure5", "figure6", "motivation"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"experiments", "-j", "2", "-store", dir, name},
			&stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, stderr.String())
		}
		if stdout.Len() == 0 {
			t.Errorf("%s rendered no output", name)
		}
	}
}

// TestRemoteFlagRejections: malformed -remote values and the
// -delta-verify composition are usage errors, caught before any work.
func TestRemoteFlagRejections(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, bad := range []string{"ftp://elsewhere", "127.0.0.1:8080", "http://"} {
		stderr.Reset()
		if code := run([]string{"experiments", "-remote", bad, "table3"}, &stdout, &stderr); code != 1 {
			t.Errorf("-remote %q: exit %d, want 1 (stderr: %s)", bad, code, stderr.String())
		}
	}

	// -delta-verify exists to recompute covered evaluations; a remote hit
	// is a replay one tier further out, so the combination is rejected.
	dir := t.TempDir()
	art := filepath.Join(dir, "warm.json")
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", art, "table3"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("artifact export: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	code := run([]string{"experiments", "-warm-start", art, "-delta-verify",
		"-remote", "http://127.0.0.1:1", "table3"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("-delta-verify with -remote: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-delta-verify") || !strings.Contains(stderr.String(), "-remote") {
		t.Errorf("diagnostic does not name both flags: %s", stderr.String())
	}
}

// TestStoreServeFlagParsing: serve's own usage errors.
func TestStoreServeFlagParsing(t *testing.T) {
	var stdout, stderr bytes.Buffer

	if code := run([]string{"store", "serve"}, &stdout, &stderr); code != 1 {
		t.Errorf("serve without -dir: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-dir") {
		t.Errorf("diagnostic does not name -dir: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"store", "serve", "-dir", t.TempDir(), "extra"},
		&stdout, &stderr); code != 1 {
		t.Errorf("serve with positional args: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "positional") {
		t.Errorf("diagnostic does not mention positional args: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"store", "serve", "-dir", t.TempDir(), "-addr", "256.256.256.256:99999"},
		&stdout, &stderr); code != 1 {
		t.Errorf("serve with an unusable address: exit %d, want 1", code)
	}

	// A directory fenced to a foreign engine must be refused, same as the
	// -store flag refuses it.
	foreign := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreign, "store.json"),
		[]byte(fmt.Sprintf(`{"store_version":%d,"engine":"flit-engine/0"}`, store.FormatVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"store", "serve", "-dir", foreign}, &stdout, &stderr); code != 1 {
		t.Errorf("serve over a foreign store: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "flit-engine/0") {
		t.Errorf("diagnostic does not name the foreign engine: %s", stderr.String())
	}
}

// TestServeRefusesOversizedHeaders: the servers behind `flit store serve`
// and `flit coord serve` refuse a header block past maxHeaderBytes before
// any handler runs, and keep serving ordinary requests.
func TestServeRefusesOversizedHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reached atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { reached.Add(1) })
	done := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serveGracefully(h, ln, done, io.Discard) }()

	get := func(header string) int {
		req, err := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(strings.Repeat("x", 64<<10)); got != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("64 KiB header block answered %d, want 431", got)
	}
	if reached.Load() != 0 {
		t.Error("an oversized header block reached the handler")
	}
	if got := get("small"); got != http.StatusOK || reached.Load() != 1 {
		t.Errorf("ordinary request answered %d (handler reached %d times)", got, reached.Load())
	}
	close(done)
	if err := <-served; err != nil {
		t.Fatalf("serveGracefully: %v", err)
	}
}
