package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// The envelope is the one encoding of a stored object: the bytes of a
// Disk store's object file and, unchanged, the body of a remote GET or
// PUT. Its layout:
//
//	magic     8 bytes, "FLITOBJ2"
//	engine    uvarint length + bytes
//	key       uvarint length + bytes
//	sum       32 bytes, SHA-256 of the payload
//	payload   uvarint length + bytes, ending the envelope
//
// The envelope repeats the key (an object is addressed by the key's hash,
// and a hash tells a reader nothing about what was hashed), the engine
// (cheap insurance when object files are copied between stores by hand),
// and a SHA-256 of the payload (a torn or bit-rotted payload must read as
// a miss, not as a result). The payload is last, so its length prefix
// also pins the envelope's end: any byte after it is damage.
var envelopeMagic = []byte("FLITOBJ2")

// envelopeContentType labels envelope bodies on the wire.
const envelopeContentType = "application/octet-stream"

// envelope is a decoded object. Key and Data alias the decoded buffer.
type envelope struct {
	Key  []byte
	Sum  [sha256.Size]byte
	Data []byte
}

// Decoding failures the callers and tests tell apart; every one of them
// reads as a miss.
var (
	errEnvelopeMagic    = errors.New("store: envelope: bad magic")
	errEnvelopeLength   = errors.New("store: envelope: length prefix overflows or runs past the end")
	errEnvelopeTrailing = errors.New("store: envelope: trailing bytes after the payload")
	errEnvelopeSum      = errors.New("store: envelope: payload checksum mismatch")
)

// encodeEnvelope returns the envelope of data stored under key by engine.
func encodeEnvelope(engine, key string, data []byte) []byte {
	n := len(envelopeMagic) + 3*binary.MaxVarintLen64 + len(engine) + len(key) + sha256.Size + len(data)
	buf := make([]byte, 0, n)
	buf = append(buf, envelopeMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(engine)))
	buf = append(buf, engine...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	sum := sha256.Sum256(data)
	buf = append(buf, sum[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	return append(buf, data...)
}

// decodeEnvelope validates raw as exactly one complete envelope written by
// engine whose payload matches its declared SHA-256. It checks no key:
// callers compare Key with the key they asked for, or its hash with the
// address they read. This is the trust boundary FuzzRemoteDecode hammers:
// Disk reads, both sides of the remote protocol and Stats/GC all go
// through it.
func decodeEnvelope(raw []byte, engine string) (envelope, error) {
	var e envelope
	rest, ok := bytes.CutPrefix(raw, envelopeMagic)
	if !ok {
		return e, errEnvelopeMagic
	}
	eng, rest, err := cutField(rest)
	if err != nil {
		return e, err
	}
	if e.Key, rest, err = cutField(rest); err != nil {
		return e, err
	}
	if len(rest) < sha256.Size {
		return e, errEnvelopeLength
	}
	copy(e.Sum[:], rest)
	if e.Data, rest, err = cutField(rest[sha256.Size:]); err != nil {
		return e, err
	}
	if len(rest) != 0 {
		return e, errEnvelopeTrailing
	}
	if string(eng) != engine {
		return e, fmt.Errorf("store: envelope from engine %q, want %q", eng, engine)
	}
	if sha256.Sum256(e.Data) != e.Sum {
		return e, errEnvelopeSum
	}
	return e, nil
}

// cutField splits one uvarint-length-prefixed field off the front of b.
func cutField(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, errEnvelopeLength
	}
	b = b[w:]
	return b[:n], b[n:], nil
}

// keyHash is a key's content address: the lowercase hex SHA-256 that names
// its object file on disk and its object path on the wire.
func keyHash(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

// validHash reports whether h is a well-formed content address.
func validHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
