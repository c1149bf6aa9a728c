package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

const (
	fuzzEngine = "flit-engine/fuzz"
	fuzzKey    = "run\x00some/plan\x00key"
)

// fuzzSeeds are the committed shapes of hostile envelopes, one per way a
// body can lie; testdata/fuzz/FuzzRemoteDecode holds the same set as
// corpus files.
func fuzzSeeds() map[string][]byte {
	valid := encodeEnvelope(fuzzEngine, fuzzKey, []byte(`{"v":1}`))
	badSum := bytes.Clone(valid)
	badSum[len(badSum)-1] ^= 1
	pastEnd := append(bytes.Clone(envelopeMagic), 0x7f) // engine length 127, no bytes follow
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	return map[string][]byte{
		"valid":            valid,
		"truncated":        valid[:len(valid)/2],
		"trailing-garbage": append(bytes.Clone(valid), "{}garbage"...),
		"wrong-engine":     encodeEnvelope("flit-engine/other", fuzzKey, []byte(`{"v":1}`)),
		"wrong-key":        encodeEnvelope(fuzzEngine, "run\x00another\x00key", []byte(`{"v":1}`)),
		"mismatched-sha":   badSum,
		"oversized":        encodeEnvelope(fuzzEngine, fuzzKey, []byte(strings.Repeat("7", 1<<16))),
		"length-past-end":  pastEnd,
		"bad-magic":        badMagic,
	}
}

// FuzzRemoteDecode hammers the envelope decoder — the trust boundary
// between a hostile network or disk and the build/run cache — the way a
// Remote uses it: decode for this engine, then require the requested key.
// Whatever bytes arrive (truncated, trailing garbage, mismatched
// checksums, foreign engines, wrong keys, length prefixes that overflow or
// run past the end, bad magic), the decoder must never panic, and it may
// only return a payload when the envelope proves it was stored under
// exactly the requested key by exactly this engine with a matching
// SHA-256 — the property that turns every fault into a recompute instead
// of a wrong result.
func FuzzRemoteDecode(f *testing.F) {
	seeds := fuzzSeeds()
	f.Add([]byte{})
	f.Add(seeds["valid"])
	f.Add(seeds["truncated"])
	f.Add(seeds["trailing-garbage"])
	f.Add(seeds["mismatched-sha"])
	f.Add(seeds["wrong-engine"])
	f.Add(seeds["bad-magic"])
	f.Add(append(bytes.Clone(envelopeMagic), bytes.Repeat([]byte{0xff}, 10)...)) // uvarint overflows 64 bits
	f.Add(binary.AppendUvarint(bytes.Clone(envelopeMagic), 1<<63))               // length far past the end
	f.Add(seeds["oversized"])

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := decodeEnvelope(raw, fuzzEngine)
		if err != nil || string(e.Key) != fuzzKey {
			return // a rejected envelope is always safe
		}
		// A decode the client would trust: re-verify from scratch with an
		// independent parser that the envelope's declarations hold for the
		// returned payload.
		engine, key, sum, data, err := reparseEnvelope(raw)
		if err != nil {
			t.Fatalf("decoder accepted bytes the re-parse rejects: %v", err)
		}
		if engine != fuzzEngine || key != fuzzKey {
			t.Fatalf("decoder accepted a foreign envelope: engine=%q key=%q", engine, key)
		}
		if sha256.Sum256(data) != sum {
			t.Fatal("decoder accepted a payload whose SHA-256 disagrees with the declared sum")
		}
		if !bytes.Equal(data, e.Data) {
			t.Fatal("decoder returned different bytes than the envelope carries")
		}
	})
}

// FuzzEnvelopeRoundTrip: whatever engine, key and payload are encoded
// decode back unchanged under that engine, and are refused under another.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add(fuzzEngine, fuzzKey, []byte(`{"v":1}`))
	f.Add("", "", []byte{})
	f.Add("e", strings.Repeat("k", 300), bytes.Repeat([]byte{0x80}, 200))
	f.Fuzz(func(t *testing.T, engine, key string, payload []byte) {
		raw := encodeEnvelope(engine, key, payload)
		e, err := decodeEnvelope(raw, engine)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v", err)
		}
		if string(e.Key) != key || !bytes.Equal(e.Data, payload) ||
			e.Sum != sha256.Sum256(payload) {
			t.Fatalf("round trip changed the envelope: %+v", e)
		}
		if _, err := decodeEnvelope(raw, engine+"x"); err == nil {
			t.Fatal("envelope decoded under a foreign engine")
		}
	})
}

// reparseEnvelope parses the layout documented in envelope.go with a
// reader instead of slicing: the fuzz oracle's independent second opinion.
func reparseEnvelope(raw []byte) (engine, key string, sum [sha256.Size]byte, data []byte, err error) {
	r := bytes.NewReader(raw)
	magic := make([]byte, len("FLITOBJ2"))
	if _, err = io.ReadFull(r, magic); err != nil || string(magic) != "FLITOBJ2" {
		return "", "", sum, nil, errors.New("bad magic")
	}
	field := func() ([]byte, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return nil, errors.New("bad length")
		}
		b := make([]byte, n)
		_, err = io.ReadFull(r, b)
		return b, err
	}
	var eng, k []byte
	if eng, err = field(); err != nil {
		return
	}
	if k, err = field(); err != nil {
		return
	}
	if _, err = io.ReadFull(r, sum[:]); err != nil {
		return
	}
	if data, err = field(); err != nil {
		return
	}
	if r.Len() != 0 {
		return "", "", sum, nil, errors.New("trailing bytes")
	}
	return string(eng), string(k), sum, data, nil
}
