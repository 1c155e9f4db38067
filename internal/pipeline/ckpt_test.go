package pipeline

import (
	"bytes"
	"testing"

	"rsepsim/internal/config"
	"rsepsim/internal/rsep"
	"rsepsim/internal/vpred"
	"rsepsim/internal/workload"
)

// TestCheckpointRoundTrip is the checkpoint contract: pausing a run at a cycle
// boundary, serializing the core, restoring it into a *different* core object
// and running to the same cumulative commit target must produce statistics
// byte-identical to an uninterrupted run. The cases mirror the golden runs so
// every serialized component — predictors, caches, TLBs, DRAM banks, store
// sets, the dyn arena, the wakeup machinery, the trace window and the RNG
// position — is exercised with live in-flight state.
func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		bench string
		cfg   *config.Config
	}{
		{"baseline", "mcf", config.TableI()},
		{"rsep-realistic", "hmmer", config.TableI().WithRSEP(rsep.Realistic())},
		{"rsep-vp", "mcf", config.TableI().WithRSEP(rsep.Ideal()).WithVP(vpred.BeBoP())},
	}
	const warmup, half, measure = 10_000, 10_000, 20_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := func() *workload.Gen {
				return workload.New(workload.MustByName(tc.bench), 7)
			}

			mono := New(tc.cfg, src())
			mono.Run(warmup)
			mono.ResetStats()
			mono.Run(measure)
			want := statsJSON(t, mono)

			first := New(tc.cfg, src())
			first.Run(warmup)
			first.ResetStats()
			first.Run(half)
			var blob bytes.Buffer
			if err := first.Checkpoint(&blob); err != nil {
				t.Fatal(err)
			}

			second, err := NewFromCheckpoint(tc.cfg, src(), bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			// Cumulative target: the paused run may have overshot its own
			// slice target at a cycle boundary, so the remainder is relative
			// to what actually committed, exactly as the sliced runner does.
			second.Run(measure - second.Stats().Committed)
			if got := statsJSON(t, second); !bytes.Equal(got, want) {
				t.Errorf("restored run diverges from uninterrupted run\n got: %s\nwant: %s", got, want)
			}

			// Restoring into a warm core of the same geometry (the worker
			// path) must behave identically to NewFromCheckpoint.
			warm := New(tc.cfg, src())
			warm.Run(5_000)
			if err := warm.Restore(tc.cfg, src(), blob.Bytes()); err != nil {
				t.Fatal(err)
			}
			warm.Run(measure - warm.Stats().Committed)
			if got := statsJSON(t, warm); !bytes.Equal(got, want) {
				t.Errorf("warm-restored run diverges from uninterrupted run\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestCheckpointRefusals pins the refusal contract, mirroring ResetFor: a
// checkpoint only restores under the exact machine geometry and seed it was
// taken with, and any corruption surfaces as an error, never as silent state.
func TestCheckpointRefusals(t *testing.T) {
	cfg := config.TableI()
	core := New(cfg, workload.New(workload.MustByName("mcf"), 7))
	core.Run(5_000)
	var blob bytes.Buffer
	if err := core.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	fresh := func() *workload.Gen { return workload.New(workload.MustByName("mcf"), 7) }

	bigger := config.TableI()
	bigger.ROBSize *= 2
	other := New(bigger, fresh())
	if err := other.Restore(bigger, fresh(), blob.Bytes()); err == nil {
		t.Error("Restore accepted a checkpoint from a different machine geometry")
	}

	reseeded := config.TableI()
	reseeded.Seed = 12345
	same := New(cfg, fresh())
	if err := same.Restore(reseeded, fresh(), blob.Bytes()); err == nil {
		t.Error("Restore accepted a checkpoint taken under a different seed")
	}

	// Flip one byte near the end: structural reads still parse, so the
	// damage must be caught by the checksum trailer.
	bad := append([]byte(nil), blob.Bytes()...)
	bad[len(bad)-16] ^= 0x40
	if _, err := NewFromCheckpoint(cfg, fresh(), bytes.NewReader(bad)); err == nil {
		t.Error("NewFromCheckpoint accepted a corrupted checkpoint")
	}

	// Truncation must error, not restore a prefix.
	if _, err := NewFromCheckpoint(cfg, fresh(), bytes.NewReader(blob.Bytes()[:blob.Len()-9])); err == nil {
		t.Error("NewFromCheckpoint accepted a truncated checkpoint")
	}
}

// TestRestoreVerifiesBeforeMutating pins DESIGN §7's ordering: a damaged blob
// is refused before any table is touched, so a warm core that was handed one
// keeps exactly its own state — its Stats and a fresh checkpoint of it are
// byte-identical before and after the failed Restore.
func TestRestoreVerifiesBeforeMutating(t *testing.T) {
	cfg := config.TableI().WithRSEP(rsep.Realistic())
	fresh := func() *workload.Gen { return workload.New(workload.MustByName("hmmer"), 7) }

	donor := New(cfg, fresh())
	donor.Run(20_000)
	var blob bytes.Buffer
	if err := donor.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	warm := New(cfg, fresh())
	warm.Run(7_000)
	snapshot := func() ([]byte, []byte) {
		var ck bytes.Buffer
		if err := warm.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		return statsJSON(t, warm), ck.Bytes()
	}
	stats0, ck0 := snapshot()

	// Flips early (the core section), mid-blob (the tables) and in the
	// trailer itself.
	for _, at := range []int{100, blob.Len() / 2, blob.Len() - 3} {
		bad := append([]byte(nil), blob.Bytes()...)
		bad[at] ^= 0x01
		if err := warm.Restore(cfg, fresh(), bad); err == nil {
			t.Fatalf("Restore accepted a blob flipped at byte %d", at)
		}
		stats1, ck1 := snapshot()
		if !bytes.Equal(stats1, stats0) {
			t.Fatalf("failed Restore (flip at %d) changed Stats\n got: %s\nwant: %s", at, stats1, stats0)
		}
		if !bytes.Equal(ck1, ck0) {
			t.Fatalf("failed Restore (flip at %d) changed the core's checkpointed state", at)
		}
	}
}
