package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"

	"rsepsim/internal/ckpt"
	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// goldenBlobs checkpoints the three golden configurations (DESIGN §4) a
// thousand instructions in, with in-flight state in every queue.
func goldenBlobs(tb testing.TB) [][]byte {
	cases := []struct {
		bench string
		cfg   *config.Config
	}{
		{"mcf", config.TableI()},
		{"hmmer", config.TableI().WithRSEP(rsep.Realistic())},
		{"mcf", config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
	}
	var blobs [][]byte
	for _, tc := range cases {
		core := pipeline.New(tc.cfg, workload.New(workload.MustByName(tc.bench), 7))
		core.Run(1_000)
		var buf bytes.Buffer
		if err := core.Checkpoint(&buf); err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	return blobs
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// reseal returns a copy of data with its last 8 bytes replaced by the correct
// CRC-64 of the rest, so mutated input reaches the decoders instead of
// stopping at the checksum.
func reseal(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-8]
	binary.LittleEndian.PutUint64(out[len(body):], crc64.Checksum(body, crcTable))
	return out
}

// odd is a POD element of a size (7) that is not a multiple of a word.
type odd struct {
	A [5]uint8
	B bool
	C int8
}

// readScript opens data and runs a fixed sequence of every read the package
// offers — the checkpoint prologue, a section of page-sized elements, raw
// structs, sections of each element size into nil, dirty and fixed
// destinations — then closes. It must return (possibly with an error), never
// panic, whatever the bytes.
func readScript(data []byte) {
	r, err := ckpt.NewReader(data)
	if err != nil {
		return
	}
	_ = r.Str()
	r.I64()
	r.U64()
	r.Expect("core")
	ckpt.ReadSlice[[4096]byte](r, nil) // the largest element: the allocation bound's worst case
	var st metrics.Stats
	ckpt.ReadStruct(r, &st)
	r.U32()
	r.Bool()
	r.F64()
	r.Int()
	ckpt.ReadSlice[uint8](r, nil)
	ckpt.ReadSlice(r, make([]uint16, 3, 100))
	ckpt.ReadSlice[uint32](r, nil)
	ckpt.ReadSlice[odd](r, nil)
	ckpt.ReadSliceFixed(r, make([]uint64, 64))
	ckpt.ReadSliceFixed(r, make([]odd, 9))
	for r.Err() == nil {
		ckpt.ReadSlice[uint64](r, nil)
	}
	_ = r.Close()
}

// FuzzReader feeds arbitrary bytes through NewReader and a fixed read script,
// once as given (exercising header and checksum rejection) and once resealed
// with a correct trailer (exercising every decoder on well-checksummed but
// malformed input). Seeds are valid blobs of the golden configurations plus
// truncated and bit-flipped copies, built here so they always carry the
// current FormatVersion; testdata/fuzz/FuzzReader holds small hand-made
// regression inputs.
func FuzzReader(f *testing.F) {
	for _, blob := range goldenBlobs(f) {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/3] ^= 0x04
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readScript(data)
		readScript(reseal(data))
	})
}
