// Package wire provides a compact binary codec for every protocol message
// in this repository, used by the live transports (internal/transport) to
// move messages between real processes (goroutines or TCP sockets) instead
// of sharing Go values.
//
// A frame opens with a marker byte (outside the type-code space), then one
// type-code byte and the message fields, every integer field an unsigned
// LEB128 varint; strings and vectors carry a varint length prefix. A
// steady-state heartbeat is three bytes. A frame that does not open with
// the marker is refused, and so is one over MaxFrame bytes.
//
// The codec is strict — unknown type codes, truncated payloads and
// trailing garbage are errors — because a transport must never deliver a
// half-parsed message to a protocol automaton.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/node"
	"repro/internal/obs"
)

// Codec errors.
var (
	// ErrUnknownKind is returned when marshaling a message kind that was
	// never registered.
	ErrUnknownKind = errors.New("wire: unknown message kind")
	// ErrUnknownCode is returned when unmarshaling an unregistered type
	// code.
	ErrUnknownCode = errors.New("wire: unknown type code")
	// ErrTruncated is returned when a payload ends prematurely.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTrailing is returned when a payload has bytes past its message.
	ErrTrailing = errors.New("wire: trailing bytes")
	// ErrTooLarge is returned for a frame over MaxFrame, on encode and on
	// decode, and for a varint out of its field's range.
	ErrTooLarge = errors.New("wire: too large")
	// ErrUnmarked is returned for a frame that does not open with the
	// marker byte.
	ErrUnmarked = errors.New("wire: frame without its marker byte")
)

// MaxFrame bounds a frame, from its marker byte to its last field: the
// encoder refuses to write a longer one and the decoders refuse to read
// one, and the TCP transport bounds its length prefix by it, so a corrupt
// prefix cannot cost a huge allocation. A string or vector longer than
// that cannot fit in a frame, so it bounds their length prefixes too.
const MaxFrame = 1 << 20

// verVarintByte opens every frame. It sits in a reserved band above the
// type-code space (Register refuses codes >= codeLimit), so it is never
// mistaken for a type code; the band is kept free for the header of a
// future envelope layout.
const (
	verVarintByte byte = 0xF8
	codeLimit     byte = 0xF0
)

// noKind is a code no kind has, as Register refuses it: what encode and
// decode refuse for a message outside the trace wrapper.
const noKind = codeLimit

// EncodeFunc serializes a message's fields (the type code is written by
// the codec), reporting a failure through Encoder.Fail.
type EncodeFunc func(e *Encoder, m node.Message)

// DecodeFunc parses a message's fields. A failed read latches in d, and
// the codec checks it once the frame is parsed.
type DecodeFunc func(d *Decoder) node.Message

type entry struct {
	code byte
	kind string // its name, for errors
	enc  EncodeFunc
	dec  DecodeFunc
}

// Codec maps message kinds to binary representations.
type Codec struct {
	byKind [obs.MaxKinds]*entry // by the kind's interned obs.Kind
	byCode [256]*entry          // by type code; any byte indexes it
}

// NewEmptyCodec returns a codec with no registrations (tests and custom
// protocols). Most callers want NewCodec from registry.go.
func NewEmptyCodec() *Codec { return new(Codec) }

// Register adds a message type. It panics on duplicate codes or kinds:
// registration happens at assembly time and a clash is a programming
// error. Codes at or above the framing-marker band are refused.
func (c *Codec) Register(code byte, kind obs.Kind, enc EncodeFunc, dec DecodeFunc) {
	if code >= codeLimit {
		panic(fmt.Sprintf("wire: code %d collides with the frame-marker band", code))
	}
	if c.byCode[code] != nil {
		panic(fmt.Sprintf("wire: duplicate code %d", code))
	}
	if c.byKind[kind] != nil {
		panic(fmt.Sprintf("wire: duplicate kind %q", obs.KindName(kind)))
	}
	e := &entry{code: code, kind: obs.KindName(kind), enc: enc, dec: dec}
	c.byCode[code], c.byKind[kind] = e, e
}

// encoders and decoders pool the codec state so the append-style marshal
// path and Unmarshal/UnmarshalEnvelope — callable from any goroutine — do
// not allocate one per message (both escape into the registered
// EncodeFunc/DecodeFunc). A socket's read loop owns a ConnDecoder instead.
var (
	encoders = sync.Pool{New: func() any { return new(Encoder) }}
	decoders = sync.Pool{New: func() any { return new(Decoder) }}
)

// Marshal serializes m with its type code.
func (c *Codec) Marshal(m node.Message) ([]byte, error) {
	return c.MarshalAppend(nil, m)
}

// MarshalAppend serializes m with its type code, appending to dst and
// returning the extended buffer. With a reused dst of sufficient capacity
// the steady-state encode path performs no allocations.
func (c *Codec) MarshalAppend(dst []byte, m node.Message) ([]byte, error) {
	return c.marshal(len(dst), append(dst, verVarintByte), m)
}

// marshal appends the type code and fields of m to head, whose frame
// begins at head[start], and checks once whether any of it failed.
func (c *Codec) marshal(start int, head []byte, m node.Message) ([]byte, error) {
	enc := encoders.Get().(*Encoder)
	enc.buf = head
	c.encode(enc, m, noKind)
	out, err := enc.buf, enc.err
	*enc = Encoder{} // never retain the caller's buffer past the call
	encoders.Put(enc)
	if err == nil && len(out)-start > MaxFrame {
		err = fmt.Errorf("%w: %d-byte %s frame", ErrTooLarge, len(out)-start, obs.KindName(m.KindID()))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encode appends m's type code and fields. The kind of code refuse fails:
// a wrapper passes its own, and a bare message noKind.
func (c *Codec) encode(e *Encoder, m node.Message, refuse byte) {
	if m == nil {
		e.Fail(fmt.Errorf("%w: nil message", ErrUnknownKind))
		return
	}
	ent := c.byKind[m.KindID()]
	switch {
	case ent == nil:
		e.Fail(fmt.Errorf("%w: %q", ErrUnknownKind, obs.KindName(m.KindID())))
	case ent.code == refuse:
		e.Fail(fmt.Errorf("wire: %s cannot nest here", ent.kind))
	default:
		e.buf = append(e.buf, ent.code)
		ent.enc(e, m)
	}
}

// decode reads a type code and the fields of its kind; code refuse fails,
// as in encode.
func (c *Codec) decode(d *Decoder, refuse byte) node.Message {
	code := d.code()
	ent := c.byCode[code]
	switch {
	case d.err != nil:
	case ent == nil:
		d.Fail(fmt.Errorf("%w: %d", ErrUnknownCode, code))
	case code == refuse:
		d.Fail(fmt.Errorf("wire: %s cannot nest here", ent.kind))
	default:
		return ent.dec(d)
	}
	return nil
}

// Unmarshal parses a message produced by Marshal.
func (c *Codec) Unmarshal(b []byte) (node.Message, error) {
	dec := decoders.Get().(*Decoder)
	env, err := c.unmarshal(dec, b, false)
	decoders.Put(dec)
	return env.Msg, err
}

// unmarshal parses a frame with d — the marker, the sender id when the
// frame is an envelope, then one message and nothing after it — reads d's
// error once, and leaves d ready for the next frame. The message never
// aliases b: Str copies every string out of it.
func (c *Codec) unmarshal(d *Decoder, b []byte, envelope bool) (Envelope, error) {
	switch {
	case len(b) == 0:
		return Envelope{}, ErrTruncated
	case b[0] != verVarintByte:
		return Envelope{}, ErrUnmarked
	case len(b) > MaxFrame:
		return Envelope{}, ErrTooLarge
	}
	var env Envelope
	d.buf = b[1:]
	if envelope {
		env.From = node.ID(int32(d.U32()))
	}
	body := d.buf
	env.Msg = c.decode(d, noKind)
	if len(d.buf) != 0 {
		d.Fail(fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)))
	}
	err := d.err
	d.buf, d.err = nil, nil // never retain the caller's buffer past the call
	if err != nil && len(body) > 0 && c.byCode[body[0]] != nil {
		err = fmt.Errorf("decode %s: %w", c.byCode[body[0]].kind, err)
	}
	if err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// Encoder appends a message's fields to a buffer. Like a Decoder it
// latches its first failure, which the codec checks once per frame.
type Encoder struct {
	buf []byte
	err error
}

// Fail records err as the encoding's failure unless one is recorded.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// U64 appends an unsigned 64-bit integer as a varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// U32 appends an unsigned 32-bit integer as a varint.
func (e *Encoder) U32(v uint32) { e.U64(uint64(v)) }

// Int appends a non-negative int as u64; a negative one fails.
func (e *Encoder) Int(v int) {
	if v < 0 {
		e.Fail(fmt.Errorf("wire: negative int %d", v))
		return
	}
	e.U64(uint64(v))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed vector of u64.
func (e *Encoder) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Decoder consumes a message's fields from a buffer. Its first failure
// latches (Fail): every read after it fails too and returns zero, so a
// message decodes as one expression and the codec checks once per frame.
type Decoder struct {
	buf []byte
	err error

	// arena is set on a ConnDecoder's decoder, never on a shared one.
	arena *connArena
}

// connArena is what a connection's decoded messages are cut from: Str
// copies strings into strs instead of allocating each on its own, and slot
// boxes a message of a pointer kind in slabs[code], a *node.Slab of that
// kind, instead of allocating each box on its own.
type connArena struct {
	strs  node.Arena
	slabs [codeLimit]any
}

// Fail records err as the frame's failure unless one is recorded, and
// empties the buffer, so that every later read fails.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// U64 reads an unsigned 64-bit integer.
func (d *Decoder) U64() uint64 {
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.Fail(ErrTruncated)
	case n < 0:
		d.Fail(ErrTooLarge)
	default:
		d.buf = d.buf[n:]
		return v
	}
	return 0
}

// U32 reads an unsigned 32-bit integer.
func (d *Decoder) U32() uint32 {
	v := d.U64()
	if v > math.MaxUint32 {
		d.Fail(ErrTooLarge)
		return 0
	}
	return uint32(v)
}

// Int reads a non-negative int encoded as u64.
func (d *Decoder) Int() int {
	v := d.U64()
	if v > 1<<62 {
		d.Fail(ErrTooLarge)
		return 0
	}
	return int(v)
}

// code reads a type-code byte.
func (d *Decoder) code() byte {
	if len(d.buf) == 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	c := d.buf[0]
	d.buf = d.buf[1:]
	return c
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Len(1)
	s := d.copyOut(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// copyOut returns b as a string that shares nothing with b: cut from the
// connection's node.Arena on an arena decoder, an allocation of its own on a
// shared one.
func (d *Decoder) copyOut(b []byte) string {
	if d.arena == nil {
		return string(b)
	}
	return d.arena.strs.Copy(b)
}

// slot boxes v, a decoded message of the pointer kind with type code code.
// A ConnDecoder cuts the box from its slab for that code — one allocation
// per chunk, and a box handed out is never written again (node.Slab); a
// shared decoder, whose messages outlive its return to the pool, allocates
// each box on its own.
func slot[T any](d *Decoder, code byte, v T) *T {
	if d.arena == nil {
		p := new(T)
		*p = v
		return p
	}
	s, ok := d.arena.slabs[code].(*node.Slab[T])
	if !ok {
		s = new(node.Slab[T])
		d.arena.slabs[code] = s
	}
	return s.New(v)
}

// Len reads the length prefix of a vector whose elements each take at
// least width bytes, and refuses a count the rest of the frame cannot hold
// — before the caller allocates by it, so a few hostile bytes cannot cost
// megabytes.
func (d *Decoder) Len(width int) int {
	n := d.U64()
	if n > uint64(len(d.buf)/width) {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// U64s reads a length-prefixed vector of u64.
func (d *Decoder) U64s() []uint64 {
	out := make([]uint64, d.Len(1))
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Envelope frames a message with its sender for the socket transport.
type Envelope struct {
	From node.ID
	Msg  node.Message
}

// MarshalEnvelope serializes from + message.
func (c *Codec) MarshalEnvelope(from node.ID, m node.Message) ([]byte, error) {
	return c.MarshalEnvelopeAppend(nil, from, m)
}

// MarshalEnvelopeAppend serializes from + message, appending to dst: the
// marker, the sender id as a varint, then the body directly after it — no
// intermediate copy. A steady-state heartbeat envelope is four bytes.
func (c *Codec) MarshalEnvelopeAppend(dst []byte, from node.ID, m node.Message) ([]byte, error) {
	return c.marshal(len(dst), binary.AppendUvarint(append(dst, verVarintByte), uint64(uint32(from))), m)
}

// UnmarshalEnvelope parses a framed message. Safe from any goroutine;
// every string of the message is its own allocation.
func (c *Codec) UnmarshalEnvelope(b []byte) (Envelope, error) {
	dec := decoders.Get().(*Decoder)
	env, err := c.unmarshal(dec, b, true)
	decoders.Put(dec)
	return env, err
}

// ConnDecoder decodes the envelopes of one connection, for the one
// goroutine that reads it: no pool round trip per frame, the strings of the
// messages it returns are cut from a node.Arena, in chunks they share, and a
// message of a pointer kind from a slab per kind (slot). One per
// connection, because a link carries strings of one lifetime — client
// commands the leader drops once they are batched, or batches a follower's
// log keeps — so a chunk is garbage as a whole or retained as a whole; a
// decoder shared between links would pin dead commands under every live
// batch. Like Codec.UnmarshalEnvelope it never aliases the frame it is
// given.
type ConnDecoder struct {
	c *Codec
	d Decoder
}

// NewConnDecoder returns a decoder for one connection's read loop.
func (c *Codec) NewConnDecoder() *ConnDecoder {
	return &ConnDecoder{c: c, d: Decoder{arena: new(connArena)}}
}

// UnmarshalEnvelope parses a framed message.
func (cd *ConnDecoder) UnmarshalEnvelope(b []byte) (Envelope, error) {
	return cd.c.unmarshal(&cd.d, b, true)
}
