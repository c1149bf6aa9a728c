package store

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the HTTP serving side of a Disk store: the other end of
// the Remote client's wire protocol, mounted by `flit store serve`. It is
// a thin, stateless shim over the Disk backend, so every durability
// property is inherited rather than re-implemented — writes are the same
// atomic temp+rename, reads go through the same envelope validation (a
// corrupt on-disk entry serves a 404, not a lie), and the engine fence
// the Disk manifest enforces at Open is re-checked per request against
// the client's X-Flit-Engine header, answered with StatusEngineMismatch
// so a foreign client can tell a fence from a miss. Paths outside
// /v2/objects/ are 404s.
func Handler(d *Disk) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hash, found := strings.CutPrefix(req.URL.Path, objectPathPrefix)
		if !found {
			http.NotFound(w, req)
			return
		}
		serveObject(d, hash, w, req)
	})
}

// serveObject handles one GET or PUT of /v2/objects/<hash>.
func serveObject(d *Disk, hash string, w http.ResponseWriter, req *http.Request) {
	w.Header().Set(engineHeader, d.Engine())
	if !validHash(hash) {
		http.Error(w, "store: object path is not a lowercase hex SHA-256", http.StatusBadRequest)
		return
	}
	if got := req.Header.Get(engineHeader); got != d.Engine() {
		http.Error(w, fmt.Sprintf("store: this store is fenced to engine %q, request is from %q: results are not interchangeable",
			d.Engine(), got), StatusEngineMismatch)
		return
	}
	switch req.Method {
	case http.MethodGet:
		raw, ok := d.object(hash)
		if !ok {
			http.Error(w, "store: no such entry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", envelopeContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.Write(raw)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, DefaultMaxBody))
		if err != nil {
			http.Error(w, "store: reading envelope: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		// The upload must prove itself the way a download must: a torn,
		// bit-flipped, foreign-engine or misaddressed envelope is rejected,
		// never stored.
		e, err := decodeEnvelope(body, d.Engine())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if keyHash(e.Key) != hash {
			http.Error(w, "store: envelope key does not hash to the object path", http.StatusBadRequest)
			return
		}
		// Conditional PUT: a key the store already holds a valid entry for
		// is a no-op — entries are pure functions of their key, so the
		// bytes on disk are already the bytes being offered.
		if _, ok := d.object(hash); ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := d.writeObject(hash, body, e.Data); err != nil {
			http.Error(w, "store: persisting entry: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "store: only GET and PUT", http.StatusMethodNotAllowed)
	}
}
