package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand"
	"strings"
	"testing"
)

// odd is a POD element whose size (7) is not a multiple of any word size, so
// its slices end in a literal tail and its groups straddle element edges.
type odd struct {
	A [5]uint8
	B bool
	C int8
}

// fill writes one of three content patterns over b.
func fill(rng *rand.Rand, b []byte, pattern string) {
	switch pattern {
	case "zero":
		clear(b)
	case "dense": // no zero byte anywhere
		for i := range b {
			b[i] = byte(1 + rng.Intn(255))
		}
	case "sparse": // mostly-zero words, isolated nonzero words and bytes
		clear(b)
		for i := 0; i+8 <= len(b); i += 8 {
			switch rng.Intn(10) {
			case 0:
				rng.Read(b[i : i+8])
			case 1:
				b[i+rng.Intn(8)] = byte(1 + rng.Intn(255))
			}
		}
		for i := len(b) &^ 7; i < len(b); i++ {
			if rng.Intn(2) == 0 {
				b[i] = byte(rng.Intn(256))
			}
		}
	default:
		panic(pattern)
	}
}

// roundTrip encodes src with Slice and decodes it three ways — ReadSlice into
// a nil slice, ReadSlice into a dirty slice of ample capacity, ReadSliceFixed
// into a dirty slice of the right length — checking each result is exactly
// src and that the stream stays aligned for the value after the section.
func roundTrip[T any](t *testing.T, rng *rand.Rand, src []T) {
	t.Helper()
	const sentinel = 0xfeed_face_cafe_beef
	var buf bytes.Buffer
	w := NewWriter(&buf)
	Slice(w, src)
	w.U64(sentinel)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := rawBytes(src)

	dirty := func(n int) []T {
		d := make([]T, n)
		rng.Read(rawBytes(d))
		return d
	}
	decoders := map[string]func(r *Reader) []T{
		"ReadSlice(nil)": func(r *Reader) []T { return ReadSlice[T](r, nil) },
		"ReadSlice(dirty)": func(r *Reader) []T {
			return ReadSlice(r, dirty(len(src) + 3)[:1])
		},
		"ReadSliceFixed(dirty)": func(r *Reader) []T {
			d := dirty(len(src))
			ReadSliceFixed(r, d)
			return d
		},
	}
	for name, decode := range decoders {
		r, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decode(r)
		if s := r.U64(); s != sentinel {
			t.Errorf("%s: sentinel after section = %#x, stream misaligned", name, s)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(src) || !bytes.Equal(rawBytes(got), want) {
			t.Errorf("%s: decoded %d elements differ from the %d encoded", name, len(got), len(src))
		}
	}
}

func testSliceType[T any](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 517, 4099} {
		for _, pattern := range []string{"zero", "dense", "sparse"} {
			t.Run(fmt.Sprintf("len%d/%s", n, pattern), func(t *testing.T) {
				src := make([]T, n)
				fill(rng, rawBytes(src), pattern)
				roundTrip(t, rng, src)
			})
		}
	}
}

// TestSliceRoundTrip is the encoding's property test: for every element size,
// length class (empty, one word, group edges, literal tails) and content mix,
// every decoder reproduces the source exactly — including into a dirty
// destination, whose stale words must all be overwritten or cleared.
func TestSliceRoundTrip(t *testing.T) {
	t.Run("uint8", testSliceType[uint8])
	t.Run("uint16", testSliceType[uint16])
	t.Run("uint32", testSliceType[uint32])
	t.Run("uint64", testSliceType[uint64])
	t.Run("odd7", testSliceType[odd])
}

// TestSparseSize pins the encoding's cost model: an all-zero table costs one
// mask word per 64-word group plus its literal tail, and a dense one costs
// the mask words on top of its raw bytes.
func TestSparseSize(t *testing.T) {
	encoded := func(b []byte) int {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		Slice(w, b)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Len() - headerLen - trailerLen - 8 // minus the length prefix
	}
	const n = 8*1000 + 5 // 1000 words (16 groups) and a 5-byte tail
	zero := make([]byte, n)
	if got, want := encoded(zero), 16*8+5; got != want {
		t.Errorf("all-zero section: %d bytes, want %d", got, want)
	}
	dense := bytes.Repeat([]byte{0xa5}, n)
	if got, want := encoded(dense), 16*8+n; got != want {
		t.Errorf("dense section: %d bytes, want %d", got, want)
	}
}

// TestScalarsRoundTrip covers the raw writers around the sections.
func TestScalarsRoundTrip(t *testing.T) {
	type pod struct {
		A uint64
		B [3]uint16
		C bool
	}
	in := pod{A: 1 << 60, B: [3]uint16{1, 0, 65535}, C: true}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Mark("sec")
	w.U64(1<<63 + 5)
	w.U32(0xdead_beef)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(-1.5)
	w.Str(strings.Repeat("x", 70_000)) // larger than the staging buffer
	Struct(w, &in)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Expect("sec")
	u64, u32, i64, i := r.U64(), r.U32(), r.I64(), r.Int()
	b1, b2, f, s := r.Bool(), r.Bool(), r.F64(), r.Str()
	var out pod
	ReadStruct(r, &out)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if u64 != 1<<63+5 || u32 != 0xdead_beef || i64 != -42 || i != -7 || !b1 || b2 || f != -1.5 ||
		s != strings.Repeat("x", 70_000) || out != in {
		t.Errorf("scalars did not round-trip: %v %v %v %v %v %v %v len(s)=%d %+v",
			u64, u32, i64, i, b1, b2, f, len(s), out)
	}
}

// seal builds a checkpoint whose payload (after the header) is body, with a
// correct trailer: a well-formed blob carrying whatever lengths the test
// wants, so the decoder's own checks — not the checksum — must reject it.
func seal(body func(w *Writer)) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	body(w)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadRejectsOverlongLengths is the allocation bound: a length field that
// the remaining bytes could not possibly encode fails before anything is
// allocated for it. Without the bound these ask make for terabytes and panic.
func TestReadRejectsOverlongLengths(t *testing.T) {
	type big [4096]byte
	cases := []struct {
		name string
		blob []byte
		read func(r *Reader)
	}{
		{"slice at the element cap", seal(func(w *Writer) { w.U64(maxSliceElems) }),
			func(r *Reader) { ReadSlice[big](r, nil) }},
		{"slice a few groups too long", seal(func(w *Writer) { w.U64(64 * 64); w.U64(0) }),
			func(r *Reader) { ReadSlice[uint64](r, nil) }},
		{"slice past the element cap", seal(func(w *Writer) { w.U64(1 << 62) }),
			func(r *Reader) { ReadSlice[uint8](r, nil) }},
		{"string", seal(func(w *Writer) { w.U64(1 << 40); w.U64(0) }),
			func(r *Reader) { r.Str() }},
		{"tag", seal(func(w *Writer) { w.U64(1 << 62) }),
			func(r *Reader) { r.Expect("core") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(tc.blob)
			if err != nil {
				t.Fatal(err)
			}
			tc.read(r)
			if r.Err() == nil {
				t.Fatal("over-long length accepted")
			}
		})
	}
}

// TestReadRejectsMalformedSections covers well-checksummed but inconsistent
// sections: a mask claiming words past a short group, and a section cut
// short. The destination must come back zeroed, never half-written.
func TestReadRejectsMalformedSections(t *testing.T) {
	t.Run("mask past group", func(t *testing.T) {
		blob := seal(func(w *Writer) { w.U64(3); w.U64(1 << 5); w.U64(7) })
		r, err := NewReader(blob)
		if err != nil {
			t.Fatal(err)
		}
		dst := []uint64{9, 9, 9}
		ReadSliceFixed(r, dst)
		if r.Err() == nil || dst[0]|dst[1]|dst[2] != 0 {
			t.Errorf("err=%v dst=%v", r.Err(), dst)
		}
	})
	t.Run("truncated words", func(t *testing.T) {
		blob := seal(func(w *Writer) { w.U64(2); w.U64(0b11); w.U64(7) })
		r, err := NewReader(blob)
		if err != nil {
			t.Fatal(err)
		}
		dst := []uint64{9, 9}
		ReadSliceFixed(r, dst)
		if r.Err() == nil || dst[0] != 0 || dst[1] != 0 {
			t.Errorf("err=%v dst=%v", r.Err(), dst)
		}
	})
	t.Run("unread payload", func(t *testing.T) {
		r, err := NewReader(seal(func(w *Writer) { w.U64(1) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err == nil {
			t.Error("Close accepted a blob with unread payload")
		}
	})
}

// TestNewReaderVerifiesWholeBlob pins that NewReader, not Close, catches
// damage: any flipped bit or truncation fails before a value is decoded.
func TestNewReaderVerifiesWholeBlob(t *testing.T) {
	blob := seal(func(w *Writer) { Slice(w, []uint64{0, 1, 2, 0, 4}); w.Str("tail") })
	if _, err := NewReader(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x10
		if _, err := NewReader(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		} else if i >= headerLen && !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at payload byte %d: %v, want ErrChecksum", i, err)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := NewReader(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestOldFormatRefused pins the version bump: a well-formed version-3 blob is
// refused by NewReader, which sends the runner down its fallback path.
func TestOldFormatRefused(t *testing.T) {
	blob := seal(func(w *Writer) { w.U64(1) })
	binary.LittleEndian.PutUint32(blob[len(magic):], 3)
	body := blob[:len(blob)-trailerLen]
	binary.LittleEndian.PutUint64(blob[len(body):], crc64.Checksum(body, crcTable))
	if _, err := NewReader(blob); err == nil || !strings.Contains(err.Error(), "format version 3") {
		t.Errorf("version-3 blob: err = %v", err)
	}
}
