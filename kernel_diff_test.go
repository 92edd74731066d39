package caesar

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Pinned toll-workload results. tollOutputDigest is the SHA-256 of the
// sorted Writer renderings runToll returns; tollStatsDigest renders
// the run statistics that do not depend on timing. Both were recorded
// while the automaton and the per-combination kernel it replaced
// still ran side by side and agreed byte for byte, on the plain and
// on the shared/fused plan, over every ingest path and topology.
const (
	tollOutputDigest = "66c79055eddc0edc0463676b4c5ee43128f90a3c705023842bf62ab39b02d200"
	tollStatsDigest  = "events=20880 outputs=857 transitions=10 partitions=4" +
		" types=map[AccidentWarning:127 SegStat:236 StoppedCar:2 TollNotification:492]" +
		" contexts=map[accident:{1 1} congestion:{4 0}]"
)

// checkTollDigest fails the test unless a runToll result reproduces
// the pinned toll outputs and statistics.
func checkTollDigest(t *testing.T, name, out string, st *Stats) {
	t.Helper()
	if d := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); d != tollOutputDigest {
		t.Errorf("%s: toll output digest %s, want %s (%d bytes)", name, d, tollOutputDigest, len(out))
	}
	s := fmt.Sprintf("events=%d outputs=%d transitions=%d partitions=%d types=%v contexts=%v",
		st.Events, st.OutputCount, st.Transitions, st.Partitions, st.PerType, st.Contexts)
	if s != tollStatsDigest {
		t.Errorf("%s: toll stats\n got %s\nwant %s", name, s, tollStatsDigest)
	}
}

// TestPatternKernelsByteIdentical is the engine-level golden test for
// the shared-run automaton: the full Linear Road toll workload must
// reproduce the pinned derived events and run statistics in both the
// plain plan and the shared/fused multi-query plan.
func TestPatternKernelsByteIdentical(t *testing.T) {
	run := func(e *Engine, evs []*Event) (*Stats, error) {
		return e.Run(NewSliceSource(evs))
	}
	out, st := runToll(t, Config{Workers: 3}, run)
	checkTollDigest(t, "plain", out, st)
	outFused, stFused := runToll(t, Config{Workers: 3, Sharing: true, FusePatterns: true}, run)
	checkTollDigest(t, "fused", outFused, stFused)
}
