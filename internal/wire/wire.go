// Package wire is the one codec for bytes that cross the process boundary:
// proofs, exported proofs, proof chains and .zka artifacts (DESIGN.md §9).
// A Writer appends big-endian encodings; a Reader parses them as untrusted
// input. The rule for bounding such bytes lives here and nowhere else:
//
//   - every count is read unsigned and capped by the bytes left before
//     anything is allocated, so no input allocates more than a constant
//     multiple of its length, on 32-bit platforms too;
//   - every point is revalidated on the curve (curve.Affine.SetBytes is
//     strict, so each point has one encoding);
//   - every scalar encoding must be below the field modulus r, so each
//     field element has one encoding.
//
// The Reader keeps its first failure: reads after it return zero values,
// so a decoder reads straight through and checks once. Every failure wraps
// the sentinel the Reader was built with.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/curve"
	"repro/internal/ff"
)

// itemSize is the encoded size of one point or one scalar.
const itemSize = 32

// modulus is the big-endian scalar field modulus. ff.Element.SetBytes
// reduces silently, so without the bound v and v + r would both decode to v.
var modulus = func() [itemSize]byte {
	var out [itemSize]byte
	ff.Modulus().FillBytes(out[:])
	return out
}()

// Writer appends encodings to a byte slice.
type Writer struct{ buf []byte }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends one byte.
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// Raw appends b as it is.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bool appends 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Str appends a one-byte length, then the bytes of s.
func (w *Writer) Str(s string) { w.buf = append(append(w.buf, byte(len(s))), s...) }

// U32 appends v as a 4-byte big-endian count or size.
func (w *Writer) U32(v int) { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }

// U64 appends v as 8 big-endian bytes.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Points appends a count, then the compressed encoding of each point.
func (w *Writer) Points(pts []curve.Affine) {
	w.U32(len(pts))
	for i := range pts {
		b := pts[i].Bytes()
		w.buf = append(w.buf, b[:]...)
	}
}

// Scalars appends a count, then the canonical encoding of each scalar.
func (w *Writer) Scalars(ss []ff.Element) {
	w.U32(len(ss))
	for i := range ss {
		b := ss[i].Bytes()
		w.buf = append(w.buf, b[:]...)
	}
}

// Reader parses untrusted bytes. Each read names what it reads, for the
// error.
type Reader struct {
	data     []byte
	sentinel error
	err      error
}

// NewReader returns a Reader over data whose failures wrap sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{data: data, sentinel: sentinel}
}

// Fail records a failure, unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), r.sentinel)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Close returns the first failure, or a failure if any bytes are unread.
func (r *Reader) Close() error {
	if len(r.data) != 0 {
		r.Fail("%d trailing bytes", len(r.data))
	}
	return r.err
}

// Next returns the next n bytes, or nil after a failure or if fewer are left.
func (r *Reader) Next(n int, what string) []byte {
	if r.err == nil && n > len(r.data) {
		r.Fail("truncated %s", what)
	}
	if r.err != nil {
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte { return r.Next(len(r.data), "") }

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if b := r.Next(1, what); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool(what string) bool {
	v := r.Byte(what)
	if v > 1 {
		r.Fail("%s is %d, not a boolean", what, v)
	}
	return v == 1
}

// Str reads a one-byte length, then that many bytes.
func (r *Reader) Str(what string) string { return string(r.Next(int(r.Byte(what)), what)) }

// U64 reads 8 big-endian bytes.
func (r *Reader) U64(what string) uint64 {
	if b := r.Next(8, what); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// u32 reads 4 big-endian bytes.
func (r *Reader) u32(what string) uint32 {
	if b := r.Next(4, what); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Int reads a 4-byte non-negative int. Values at or above 2^31, which the
// Writer never writes from an int, fail: a 32-bit int would turn them
// negative and let them pass signed bounds downstream.
func (r *Reader) Int(what string) int {
	v := r.u32(what)
	if v > math.MaxInt32 {
		r.Fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// Count reads a 4-byte count of items that take at least minSize bytes
// each, and fails unless that many fit in the bytes left. The bound is
// taken on the unsigned value, before any caller allocates.
func (r *Reader) Count(what string, minSize int) int {
	v := r.u32(what)
	if r.err == nil && uint64(v) > uint64(len(r.data)/minSize) {
		r.Fail("%s count %d exceeds %d remaining bytes", what, v, len(r.data))
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// Points reads a count, then that many compressed points, each revalidated
// on the curve.
func (r *Reader) Points(what string) []curve.Affine {
	n := r.Count(what, itemSize)
	if r.err != nil {
		return nil
	}
	out := make([]curve.Affine, n)
	for i := range out {
		if err := out[i].SetBytes([itemSize]byte(r.data)); err != nil {
			r.Fail("%s %d: %v", what, i, err)
			return nil
		}
		r.data = r.data[itemSize:]
	}
	return out
}

// Scalars reads a count, then that many scalar encodings, each below r.
func (r *Reader) Scalars(what string) []ff.Element {
	n := r.Count(what, itemSize)
	if r.err != nil {
		return nil
	}
	out := make([]ff.Element, n)
	for i := range out {
		b := r.data[:itemSize]
		if bytes.Compare(b, modulus[:]) >= 0 {
			r.Fail("%s %d: non-canonical scalar encoding", what, i)
			return nil
		}
		out[i].SetBytes(b)
		r.data = r.data[itemSize:]
	}
	return out
}
