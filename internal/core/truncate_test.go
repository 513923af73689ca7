package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// TestTruncatedEmbedPayloadSurfacesDescriptiveError: a TruncatePayload
// fault that corrupts an embedding directory request or reply, ghost
// refresh, neighbourhood or cell-gather payload must surface as a
// RankError explaining what was truncated — not as a bare
// index-out-of-range panic from deep inside the lattice code, nor as a
// silently wrong run. The event numbers pin the guarded exchanges of
// the deterministic 32x32/P=4/seed-3 run (found by sweeping the fault
// position over every event).
func TestTruncatedEmbedPayloadSurfacesDescriptiveError(t *testing.T) {
	cases := []struct {
		name  string
		event int64
		want  string
	}{
		{"directory request", 24, "directory request from rank 1 carried"},
		{"directory reply", 31, "directory reply from rank 1 carried 8 owners, want 16"},
		{"ghost refresh", 38, "ghost refresh from rank"},
		{"neighbourhood exchange", 47, "neighbour payload from rank"},
		{"beta gather", 46, "beta gather from rank 1 carried 8 cells, want 16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Grid2D(32, 32)
			opt := DefaultOptions(3)
			opt.Model.Faults = mpi.NewFaultPlan().Truncate(1, tc.event)
			_, err := PartitionChecked(g.G, 4, opt)
			if err == nil {
				t.Fatal("truncated payload went unnoticed")
			}
			var re *mpi.RankError
			if !errors.As(err, &re) {
				t.Fatalf("want *RankError, got %T: %v", err, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "truncated payload?") {
				t.Fatalf("error does not describe the truncation: %v", err)
			}
			if strings.Contains(msg, "index out of range") || strings.Contains(msg, "slice bounds") {
				t.Fatalf("raw bounds panic leaked through: %v", err)
			}
		})
	}
}
