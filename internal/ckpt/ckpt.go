// Package ckpt implements the binary checkpoint container used to serialize
// simulator state: a small magic/version/architecture header, a stream of
// primitive values and POD-slice sections, and a trailing CRC-64 over
// everything in between.
//
// The format is deliberately *not* an interchange format. Slices of plain-old
// -data structs are dumped with their in-memory layout (native endianness,
// native word size, native field padding), so a checkpoint is only guaranteed
// to restore under a binary built for the same architecture — the header's
// architecture probe refuses anything else. What the format buys in exchange
// is that saving or restoring a multi-megabyte predictor table is one linear
// pass over its bytes instead of a per-field walk.
//
// Slice sections are stored sparsely (format version 4): the raw bytes are cut
// into groups of 64 eight-byte words, and each group is written as a uint64
// occupancy mask followed by its nonzero words only; the len%8 tail bytes stay
// literal. Simulator tables are mostly zero — cold cache sets, untrained
// predictor entries — so this shrinks a checkpoint several-fold, and the mask
// needs no threshold to cope with isolated nonzero words.
//
// Both Writer and Reader latch the first error: after a failure every
// subsequent call is a cheap no-op (reads return zero values), so component
// save/load code can stay free of error plumbing and the caller checks
// Err/Close once at the end. NewReader verifies the checksum over the whole
// blob before handing out a Reader, so a torn or bit-flipped checkpoint is an
// error before any state is decoded, never corrupt state.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// FormatVersion identifies the container layout. Bump on any incompatible
// change to the header or framing — or to the in-memory layout of a raw
// POD struct/slice a checkpoint embeds; component-level layout changes are
// caught by the section tags and, failing that, the checksum.
//
// Version history: 2 — metrics.Stats gained SkippedCycles and the pipeline's
// dyn/hotState records moved renameReady between them. 3 — the RSEP FIFO
// history ring shrank to 8-byte entries (implied CSNs, delta chain links)
// and stopped serializing its derivable bucket heads. 4 — slice sections are
// masked-sparse (64-word groups: occupancy mask, then the nonzero words).
const FormatVersion uint32 = 4

const magic = "RSEPCKPT"

// headerLen is the byte length of the header NewWriter emits: magic,
// version, architecture probe, word probe.
const headerLen = len(magic) + 4 + 8 + 8

// trailerLen is the byte length of the CRC-64 trailer.
const trailerLen = 8

// groupWords is the number of 8-byte words one occupancy mask covers.
const groupWords = 64

// bufSize is the Writer's staging buffer; the CRC is updated once per flush.
const bufSize = 1 << 16

// archProbe is written in native byte order and compared the same way: a
// checkpoint read on a machine with different endianness or word conventions
// fails here instead of deserializing garbage.
const archProbe uint64 = 0x0102_0304_0506_0708

// wordProbe additionally pins the native int size (raw struct dumps embed
// int-typed fields).
const wordProbe = uint64(unsafe.Sizeof(int(0)))

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrChecksum is returned by NewReader when the trailing CRC does not match
// the bytes before it.
var ErrChecksum = errors.New("ckpt: checksum mismatch")

// errTruncated is latched when a read runs past the end of the payload.
var errTruncated = errors.New("ckpt: truncated checkpoint")

// maxSliceElems caps any single slice's element count. It keeps sliceLen's
// size arithmetic from overflowing; the bound that stops a corrupt length
// from allocating is the remaining-bytes check there.
const maxSliceElems = 1 << 31

// Writer serializes a checkpoint stream. Bytes are staged in a 64 KB buffer;
// the CRC is computed over each buffer-full as it is handed to the
// underlying writer.
type Writer struct {
	w   io.Writer
	buf []byte
	crc uint64
	err error
}

// NewWriter starts a checkpoint stream on w, emitting the header.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: w, buf: make([]byte, 0, bufSize)}
	cw.writeRaw([]byte(magic))
	cw.U32(FormatVersion)
	if cw.room(8) {
		cw.buf = binary.NativeEndian.AppendUint64(cw.buf, archProbe)
	}
	cw.U64(wordProbe)
	return cw
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// flush checksums the staged bytes and hands them to the underlying writer.
func (w *Writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	w.crc = crc64.Update(w.crc, crcTable, w.buf)
	if _, err := w.w.Write(w.buf); err != nil {
		w.fail(err)
	}
	w.buf = w.buf[:0]
}

// room makes space for n more staged bytes (n ≤ bufSize), reporting false
// once the Writer has failed.
func (w *Writer) room(n int) bool {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
	return w.err == nil
}

func (w *Writer) writeRaw(b []byte) {
	for len(b) > 0 && w.room(1) {
		n := copy(w.buf[len(w.buf):cap(w.buf)], b)
		w.buf = w.buf[:len(w.buf)+n]
		b = b[n:]
	}
}

// U64 writes a fixed-width unsigned value.
func (w *Writer) U64(v uint64) {
	if w.room(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// U32 writes a fixed-width unsigned value.
func (w *Writer) U32(v uint32) {
	if w.room(4) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// I64 writes a signed value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes a native int as 64 bits.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool writes a boolean.
func (w *Writer) Bool(v bool) {
	if w.room(1) {
		var b byte
		if v {
			b = 1
		}
		w.buf = append(w.buf, b)
	}
}

// F64 writes a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.writeRaw([]byte(s))
}

// Mark writes a section tag. Reader.Expect with the same tag detects format
// skew at the section boundary instead of at the final checksum.
func (w *Writer) Mark(tag string) { w.Str(tag) }

// zeroGroup is compared against whole groups: most groups of a simulator
// table are entirely zero, and a vectorized compare skips them fastest.
var zeroGroup [8 * groupWords]byte

// sparse writes b as masked groups of 64 words plus a literal tail.
func (w *Writer) sparse(b []byte) {
	words := len(b) / 8
	for g := 0; g < words; g += groupWords {
		grp := b[8*g : 8*min(g+groupWords, words)]
		if !w.room(8 + len(grp)) {
			return
		}
		at := len(w.buf)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, 0) // mask, patched below
		if string(grp) == string(zeroGroup[:len(grp)]) {
			continue
		}
		var mask uint64
		for i, p := 0, grp; len(p) >= 8; i, p = i+1, p[8:] {
			if v := binary.LittleEndian.Uint64(p); v != 0 {
				mask |= 1 << i
				w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
			}
		}
		binary.LittleEndian.PutUint64(w.buf[at:], mask)
	}
	w.writeRaw(b[8*words:])
}

// Close writes the CRC trailer and flushes. The Writer is unusable after.
func (w *Writer) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	var b [trailerLen]byte
	binary.LittleEndian.PutUint64(b[:], w.crc)
	if _, err := w.w.Write(b[:]); err != nil {
		w.fail(err)
	}
	return w.err
}

// Reader deserializes a checkpoint held in memory. It never writes to the
// blob, and nothing it returns aliases it.
type Reader struct {
	b   []byte // unread payload, trailer excluded
	err error
}

// NewReader opens a checkpoint blob, validating the header and then the CRC
// trailer over the whole blob: a version or architecture mismatch, a
// truncation or any flipped bit is an error before a single value is
// decoded.
func NewReader(blob []byte) (*Reader, error) {
	if len(blob) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", errTruncated, len(blob))
	}
	if head := blob[:len(magic)]; string(head) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", head)
	}
	cr := &Reader{b: blob[len(magic) : len(blob)-trailerLen]}
	if v := cr.U32(); v != FormatVersion {
		return nil, fmt.Errorf("ckpt: format version %d, want %d", v, FormatVersion)
	}
	if binary.NativeEndian.Uint64(cr.take(8)) != archProbe {
		return nil, errors.New("ckpt: checkpoint written on an incompatible architecture")
	}
	if cr.U64() != wordProbe {
		return nil, errors.New("ckpt: checkpoint written with an incompatible word size")
	}
	body := blob[:len(blob)-trailerLen]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(blob[len(body):]) {
		return nil, ErrChecksum
	}
	return cr, nil
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes the next n payload bytes. It returns nil once the Reader has
// failed, or fails it when fewer than n bytes remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail(errTruncated)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) readRaw(b []byte) {
	if p := r.take(len(b)); p != nil {
		copy(b, p)
	} else {
		clear(b)
	}
}

// U64 reads a fixed-width unsigned value.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// U32 reads a fixed-width unsigned value.
func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// I64 reads a signed value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a native int written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	p := r.take(1)
	return p != nil && p[0] != 0
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// strBytes reads a length-prefixed string as a view of the blob.
func (r *Reader) strBytes() []byte {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("ckpt: string length %d exceeds the %d bytes left", n, len(r.b)))
	}
	return r.take(int(n))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.strBytes()) }

// Expect consumes a section tag and fails unless it matches.
func (r *Reader) Expect(tag string) {
	if got := r.strBytes(); r.err == nil && string(got) != tag {
		r.fail(fmt.Errorf("ckpt: section %q, want %q", got, tag))
	}
}

// sliceLen reads a slice's element count and checks that a section of that
// many elemSize-byte elements could still fit in the unread payload: every
// 64-word group costs at least its mask, and the tail is literal. A corrupt
// length thus fails here, before anything is allocated for it.
func (r *Reader) sliceLen(elemSize uintptr) (int, bool) {
	n := r.U64()
	if r.err != nil {
		return 0, false
	}
	if n > maxSliceElems {
		r.fail(fmt.Errorf("ckpt: implausible slice length %d", n))
		return 0, false
	}
	size := n * uint64(elemSize)
	words := size / 8
	minEnc := 8*((words+groupWords-1)/groupWords) + size%8
	if minEnc > uint64(len(r.b)) {
		r.fail(fmt.Errorf("ckpt: slice of %d elements needs at least %d bytes, %d left", n, minEnc, len(r.b)))
		return 0, false
	}
	return int(n), true
}

// sparse decodes a section written by Writer.sparse into dst, whose length
// the caller has already settled: present words are scattered in place and
// the rest cleared. On failure dst is left zeroed.
func (r *Reader) sparse(dst []byte) {
	words := len(dst) / 8
	for g := 0; g < words && r.err == nil; g += groupWords {
		grp := dst[8*g : 8*min(g+groupWords, words)]
		mask := r.U64()
		if n := len(grp) / 8; n < groupWords && mask>>n != 0 {
			r.fail(fmt.Errorf("ckpt: occupancy mask %#x has bits past a %d-word group", mask, n))
			break
		}
		src := r.take(8 * bits.OnesCount64(mask))
		if src == nil {
			break
		}
		if mask == ^uint64(0) {
			copy(grp, src)
			continue
		}
		clear(grp)
		for m := mask; m != 0; m &= m - 1 {
			i := 8 * bits.TrailingZeros64(m)
			binary.LittleEndian.PutUint64(grp[i:], binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
	}
	r.readRaw(dst[8*words:])
	if r.err != nil {
		clear(dst)
	}
}

// Close reports the first decoding error, or an error if payload bytes were
// left unread — a writer/reader drift that consumed too little.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Errorf("ckpt: %d unread payload bytes", len(r.b)))
	}
	return r.err
}

// podCache memoizes the pointer-freeness verdict per element type.
var podCache sync.Map // reflect.Type -> bool

// assertPOD panics if T contains pointers, slices, maps, strings or other
// reference kinds — raw-dumping such a type would serialize addresses. The
// check runs once per type.
func assertPOD[T any]() {
	t := reflect.TypeOf((*T)(nil)).Elem() // reflect.TypeFor boxes a T: large arrays would allocate
	if ok, seen := podCache.Load(t); seen {
		if !ok.(bool) {
			panic(fmt.Sprintf("ckpt: type %v is not plain old data", t))
		}
		return
	}
	ok := isPOD(t)
	podCache.Store(t, ok)
	if !ok {
		panic(fmt.Sprintf("ckpt: type %v is not plain old data", t))
	}
}

func isPOD(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return isPOD(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isPOD(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// Slice writes a length-prefixed, masked-sparse dump of a POD slice.
func Slice[T any](w *Writer, s []T) {
	assertPOD[T]()
	w.U64(uint64(len(s)))
	w.sparse(rawBytes(s))
}

// ReadSlice reads a slice written by Slice, reusing s's backing array when it
// is large enough. It returns the restored slice.
func ReadSlice[T any](r *Reader, s []T) []T {
	assertPOD[T]()
	var zero T
	n, ok := r.sliceLen(unsafe.Sizeof(zero))
	if !ok {
		return s[:0]
	}
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]T, n)
	}
	r.sparse(rawBytes(s))
	return s
}

// ReadSliceFixed reads a slice written by Slice into s in place, failing
// unless the stored length equals len(s). Use it for geometry-sized tables
// whose length is fixed by the configuration.
func ReadSliceFixed[T any](r *Reader, s []T) {
	assertPOD[T]()
	if n := r.U64(); r.err == nil && n != uint64(len(s)) {
		r.fail(fmt.Errorf("ckpt: slice length %d, want %d (geometry mismatch)", n, len(s)))
	}
	if r.err != nil {
		return
	}
	r.sparse(rawBytes(s))
}

// Struct writes one POD struct raw.
func Struct[T any](w *Writer, v *T) {
	assertPOD[T]()
	w.writeRaw(unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v)))
}

// ReadStruct reads a struct written by Struct.
func ReadStruct[T any](r *Reader, v *T) {
	assertPOD[T]()
	r.readRaw(unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v)))
}
