// Package wire provides a compact binary codec for every protocol message
// in this repository, used by the live transports (internal/transport) to
// move messages between real processes (goroutines or TCP sockets) instead
// of sharing Go values.
//
// A frame opens with a marker byte (outside the type-code space), then one
// type-code byte and the message fields, every integer field an unsigned
// LEB128 varint (zigzag for signed fields); strings and vectors carry a
// varint length prefix. A steady-state heartbeat is three bytes. A frame
// that does not open with the marker is refused.
//
// The codec is strict — unknown type codes, truncated payloads and
// trailing garbage are errors — because a transport must never deliver a
// half-parsed message to a protocol automaton.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/node"
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
	// ErrTooLarge is returned when a length prefix or varint exceeds sane
	// bounds.
	ErrTooLarge = errors.New("wire: length prefix too large")
	// ErrUnmarked is returned for a frame that does not open with the
	// marker byte.
	ErrUnmarked = errors.New("wire: frame without its marker byte")
)

// maxElems bounds length prefixes to keep a corrupt packet from causing a
// huge allocation.
const maxElems = 1 << 20

// verVarintByte opens every frame. It sits in a reserved band above the
// type-code space (Register refuses codes >= codeLimit), so it is never
// mistaken for a type code; the band is kept free for the header of a
// future envelope layout.
const (
	verVarintByte byte = 0xF8
	codeLimit     byte = 0xF0
)

// EncodeFunc serializes a message's fields (the type code is written by
// the codec).
type EncodeFunc func(e *Encoder, m node.Message) error

// DecodeFunc parses a message's fields.
type DecodeFunc func(d *Decoder) (node.Message, error)

type entry struct {
	code byte
	kind string
	enc  EncodeFunc
	dec  DecodeFunc
}

// Codec maps message kinds to binary representations.
type Codec struct {
	byKind map[string]*entry
	byCode map[byte]*entry
}

// NewEmptyCodec returns a codec with no registrations (tests and custom
// protocols). Most callers want NewCodec from registry.go.
func NewEmptyCodec() *Codec {
	return &Codec{byKind: make(map[string]*entry), byCode: make(map[byte]*entry)}
}

// Register adds a message type. It panics on duplicate codes or kinds:
// registration happens at assembly time and a clash is a programming
// error. Codes at or above the framing-marker band are refused.
func (c *Codec) Register(code byte, kind string, enc EncodeFunc, dec DecodeFunc) {
	if code >= codeLimit {
		panic(fmt.Sprintf("wire: code %d collides with the frame-marker band", code))
	}
	if _, ok := c.byCode[code]; ok {
		panic(fmt.Sprintf("wire: duplicate code %d", code))
	}
	if _, ok := c.byKind[kind]; ok {
		panic(fmt.Sprintf("wire: duplicate kind %q", kind))
	}
	e := &entry{code: code, kind: kind, enc: enc, dec: dec}
	c.byCode[code] = e
	c.byKind[kind] = e
}

// Kinds returns the registered kinds (order unspecified).
func (c *Codec) Kinds() []string {
	out := make([]string, 0, len(c.byKind))
	for k := range c.byKind {
		out = append(out, k)
	}
	return out
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
	return c.marshalBody(append(dst, verVarintByte), m)
}

// marshalBody appends the type code and fields of m (no marker).
func (c *Codec) marshalBody(dst []byte, m node.Message) ([]byte, error) {
	e, ok := c.byKind[m.Kind()]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, m.Kind())
	}
	enc := encoders.Get().(*Encoder)
	enc.buf = append(dst, e.code)
	err := e.enc(enc, m)
	out := enc.buf
	enc.buf = nil
	encoders.Put(enc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Unmarshal parses a message produced by Marshal.
func (c *Codec) Unmarshal(b []byte) (node.Message, error) {
	b, err := unmark(b)
	if err != nil {
		return nil, err
	}
	dec := decoders.Get().(*Decoder)
	m, err := c.unmarshalBody(dec, b)
	decoders.Put(dec)
	return m, err
}

// unmark returns b without the marker byte it must open with.
func unmark(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	if b[0] != verVarintByte {
		return nil, ErrUnmarked
	}
	return b[1:], nil
}

// unmarshalBody parses a type code plus fields (no marker) with dec,
// enforcing the no-trailing-bytes invariant. The message never aliases b:
// Str copies every string out of it.
func (c *Codec) unmarshalBody(dec *Decoder, b []byte) (node.Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	e, ok := c.byCode[b[0]]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCode, b[0])
	}
	dec.buf = b[1:]
	m, err := e.dec(dec)
	trailing := len(dec.buf)
	dec.buf = nil // never retain the caller's buffer past the call
	if err != nil {
		return nil, fmt.Errorf("decode %q: %w", e.kind, err)
	}
	if trailing != 0 {
		return nil, fmt.Errorf("%w: %d bytes after %q", ErrTrailing, trailing, e.kind)
	}
	return m, nil
}

// Encoder appends a message's fields to a buffer.
type Encoder struct {
	buf []byte
}

// U64 appends an unsigned 64-bit integer as a varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// U32 appends an unsigned 32-bit integer as a varint.
func (e *Encoder) U32(v uint32) { e.U64(uint64(v)) }

// I64 appends a signed 64-bit integer as a zigzag varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a non-negative int as u64.
func (e *Encoder) Int(v int) error {
	if v < 0 {
		return fmt.Errorf("wire: negative int %d", v)
	}
	e.U64(uint64(v))
	return nil
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed vector of u64.
func (e *Encoder) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Decoder consumes a message's fields from a buffer.
type Decoder struct {
	buf []byte

	// arena makes Str copy strings into chunk instead of allocating each
	// on its own: set on a ConnDecoder's decoder, never on a shared one.
	arena bool
	chunk strings.Builder
}

// arenaChunk is how many bytes of decoded strings share one allocation on
// a ConnDecoder: ~900 of the benchmark's 70-byte commands.
const arenaChunk = 64 << 10

// U64 reads an unsigned 64-bit integer.
func (d *Decoder) U64() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	return v, d.advance(n)
}

// U32 reads an unsigned 32-bit integer.
func (d *Decoder) U32() (uint32, error) {
	v, err := d.U64()
	if err == nil && v > 1<<32-1 {
		err = ErrTooLarge
	}
	return uint32(v), err
}

// I64 reads a signed 64-bit integer (see Encoder.I64).
func (d *Decoder) I64() (int64, error) {
	v, n := binary.Varint(d.buf)
	return v, d.advance(n)
}

// advance consumes a varint of n bytes, as binary.Uvarint and
// binary.Varint report it: 0 when the buffer ends inside it, negative when
// it carries more than 64 bits.
func (d *Decoder) advance(n int) error {
	switch {
	case n == 0:
		return ErrTruncated
	case n < 0:
		return ErrTooLarge
	}
	d.buf = d.buf[n:]
	return nil
}

// Int reads a non-negative int encoded as u64.
func (d *Decoder) Int() (int, error) {
	v, err := d.U64()
	if err != nil {
		return 0, err
	}
	if v > 1<<62 {
		return 0, ErrTooLarge
	}
	return int(v), nil
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) {
	n, err := d.U32()
	if err != nil {
		return "", err
	}
	if n > maxElems {
		return "", ErrTooLarge
	}
	if len(d.buf) < int(n) {
		return "", ErrTruncated
	}
	s := d.copyOut(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// copyOut returns b as a string that shares nothing with b. An arena
// decoder appends the bytes to its current chunk and returns a string over
// them: one allocation per chunk instead of one per string. The chunk is
// append-only — a full one is abandoned to the garbage collector, which
// frees it when the last string cut from it dies, and is never rewound —
// so a string handed out is never written again. A string of more than an
// eighth of a chunk is allocated on its own rather than strand the rest of
// the chunk it does not fit in.
func (d *Decoder) copyOut(b []byte) string {
	if !d.arena || len(b) > arenaChunk/8 {
		return string(b)
	}
	if d.chunk.Cap()-d.chunk.Len() < len(b) {
		d.chunk.Reset() // lets go of the old chunk without touching it
		d.chunk.Grow(arenaChunk)
	}
	at := d.chunk.Len()
	d.chunk.Write(b)
	return d.chunk.String()[at:]
}

// Len reads the length prefix of a vector whose elements each take at
// least width bytes, and refuses a count the rest of the frame cannot hold
// — before the caller allocates by it, so a few hostile bytes cannot cost
// megabytes.
func (d *Decoder) Len(width int) (int, error) {
	n, err := d.U32()
	if err != nil {
		return 0, err
	}
	if n > maxElems {
		return 0, ErrTooLarge
	}
	if int(n) > len(d.buf)/width {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// U64s reads a length-prefixed vector of u64.
func (d *Decoder) U64s() ([]uint64, error) {
	n, err := d.Len(1)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i], err = d.U64()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
	dst = binary.AppendUvarint(append(dst, verVarintByte), uint64(uint32(from)))
	return c.marshalBody(dst, m)
}

// UnmarshalEnvelope parses a framed message. Safe from any goroutine;
// every string of the message is its own allocation.
func (c *Codec) UnmarshalEnvelope(b []byte) (Envelope, error) {
	dec := decoders.Get().(*Decoder)
	env, err := c.unmarshalEnvelope(dec, b)
	decoders.Put(dec)
	return env, err
}

// ConnDecoder decodes the envelopes of one connection, for the one
// goroutine that reads it: no pool round trip per frame, and the strings of
// the messages it returns are cut from a chunk they share (see
// Decoder.copyOut). One per connection, because a link carries strings of
// one lifetime — client commands the leader drops once they are batched,
// or batches a follower's log keeps — so a chunk is garbage as a whole or
// retained as a whole; a decoder shared between links would pin dead
// commands under every live batch. Like Codec.UnmarshalEnvelope it never
// aliases the frame it is given.
type ConnDecoder struct {
	c *Codec
	d Decoder
}

// NewConnDecoder returns a decoder for one connection's read loop.
func (c *Codec) NewConnDecoder() *ConnDecoder {
	return &ConnDecoder{c: c, d: Decoder{arena: true}}
}

// UnmarshalEnvelope parses a framed message.
func (cd *ConnDecoder) UnmarshalEnvelope(b []byte) (Envelope, error) {
	return cd.c.unmarshalEnvelope(&cd.d, b)
}

func (c *Codec) unmarshalEnvelope(dec *Decoder, b []byte) (Envelope, error) {
	b, err := unmark(b)
	if err != nil {
		return Envelope{}, err
	}
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return Envelope{}, ErrTruncated
	case n < 0 || v > 1<<32-1:
		return Envelope{}, ErrTooLarge
	}
	m, err := c.unmarshalBody(dec, b[n:])
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{From: node.ID(int32(uint32(v))), Msg: m}, nil
}
