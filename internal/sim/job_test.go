package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tornado/internal/combin"
)

// scriptRunner is a Runner that computes nothing: it counts the units it is
// handed, and those handed under an already-canceled context, and fails the
// one whose ID is failID.
type scriptRunner struct {
	workers int
	failID  int
	ran     atomic.Int32
	late    atomic.Int32
}

var errScript = errors.New("scripted unit failure")

func (r *scriptRunner) Workers() int { return r.workers }

func (r *scriptRunner) RunUnit(ctx context.Context, w int, u Unit) (UnitResult, error) {
	r.ran.Add(1)
	if ctx.Err() != nil {
		r.late.Add(1)
	}
	if u.ID == r.failID {
		return UnitResult{}, errScript
	}
	return UnitResult{}, ctx.Err()
}

// scriptJob is one group of n units whose fold lists the units it folds,
// in the order it folds them, and ends the group at unit stopAt.
func scriptJob(n, stopAt int) (*Job, *[]int) {
	folded := []int{}
	j := &Job{Groups: [][]Unit{make([]Unit, n)}}
	j.fold = func(gi, i int, _ UnitResult) int {
		folded = append(folded, i)
		if i == stopAt {
			return gi + 1
		}
		return gi
	}
	return j.number(), &folded
}

// TestRunGroupFirstErrorCancelsTheRest: the first unit error ends its
// group — no later unit is handed to the runner — and it, not the
// cancellation it caused, is what the group reports; a caller's cancel
// reports ctx.Err() without running a unit.
func TestRunGroupFirstErrorCancelsTheRest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		j, _ := scriptJob(200, -1)
		r := &scriptRunner{workers: workers, failID: 7}
		if _, err := j.runGroup(context.Background(), r, 0); err != errScript {
			t.Errorf("workers=%d: group returned %v, want the unit's error", workers, err)
		}
		// One worker runs units 0..7 and stops. With more, the others may
		// run any number of units while unit 7's worker is descheduled, but
		// once the failure has canceled the group at most one more each,
		// already past its cancellation check.
		if ran := r.ran.Load(); workers == 1 && ran != 8 {
			t.Errorf("workers=1: %d units ran, want 8", ran)
		}
		if late := int(r.late.Load()); late > workers-1 {
			t.Errorf("workers=%d: %d units ran after the failure canceled the group", workers, late)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r = &scriptRunner{workers: workers, failID: -1}
		if _, err := j.runGroup(ctx, r, 0); !errors.Is(err, context.Canceled) || r.ran.Load() != 0 {
			t.Errorf("workers=%d: canceled group returned %v after running %d units", workers, err, r.ran.Load())
		}
	}
}

// shuffledRunner finishes its units out of order: each yields the
// processor a number of times that varies with its ID before it returns.
// It fails the unit whose ID is failID, and counts the units it is handed
// and those handed under an already-canceled context.
type shuffledRunner struct{ scriptRunner }

func (r *shuffledRunner) RunUnit(ctx context.Context, w int, u Unit) (UnitResult, error) {
	for range u.ID * 7 % 5 * 10 {
		runtime.Gosched()
	}
	return r.scriptRunner.RunUnit(ctx, w, u)
}

// TestRunGroupStopsAtTheFold: a fold that ends its group sees exactly the
// units up to it, in order, whatever order they finish in; the group ends
// cleanly, at one worker without running a unit past the stop, and no unit
// starts once the stop has canceled the rest. A real unit error before the
// stop is still what the group returns, and nothing from it on is folded.
func TestRunGroupStopsAtTheFold(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, stopAt := range []int{0, 5, 63} {
			j, folded := scriptJob(64, stopAt)
			r := &shuffledRunner{scriptRunner{workers: workers, failID: -1}}
			next, err := j.runGroup(context.Background(), r, 0)
			if err != nil || next != 1 {
				t.Fatalf("workers=%d stop at %d: runGroup returned %d, %v; want 1, nil", workers, stopAt, next, err)
			}
			if want := seq(stopAt + 1); !slices.Equal(*folded, want) {
				t.Errorf("workers=%d stop at %d: folded %v, want %v", workers, stopAt, *folded, want)
			}
			if ran := int(r.ran.Load()); workers == 1 && ran != stopAt+1 {
				t.Errorf("workers=1 stop at %d: %d units ran", stopAt, ran)
			}
			if late := int(r.late.Load()); late > workers-1 {
				t.Errorf("workers=%d stop at %d: %d units started after the stop", workers, stopAt, late)
			}
		}

		j, folded := scriptJob(64, 40)
		r := &shuffledRunner{scriptRunner{workers: workers, failID: 20}}
		if _, err := j.runGroup(context.Background(), r, 0); err != errScript {
			t.Errorf("workers=%d: error before the stop: group returned %v, want the unit's error", workers, err)
		}
		if len(*folded) > 20 || !slices.Equal(*folded, seq(len(*folded))) {
			t.Errorf("workers=%d: error at unit 20: folded %v", workers, *folded)
		}
	}
}

// seq returns 0, 1, …, n−1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestWorstCasePlanEndingShort: a search asked for cardinalities it cannot
// plan reports that only if it gets there. The 8-node mirror fails at k=2;
// MaxK 12 asks for four cardinalities that do not exist. On 96 nodes the
// plan ends at k=7, the last cardinality within the exhaustive budget.
func TestWorstCasePlanEndingShort(t *testing.T) {
	g := mirrorGraph(4)
	j := NewWorstCaseJob(g, WorstCaseOptions{MaxK: 12})
	if len(j.Groups) != 8 || j.Err == nil {
		t.Fatalf("plan has %d groups and error %v, want 8 and an out-of-range error", len(j.Groups), j.Err)
	}
	for gi, grp := range j.Groups {
		if len(grp) != 1 || grp[0] != (Unit{ID: gi, K: gi + 1, MaxFailures: DefaultMaxFailures}) {
			t.Errorf("group %d is %+v, want one unit for cardinality %d", gi, grp, gi+1)
		}
	}
	j = NewWorstCaseJob(mirrorGraph(48), WorstCaseOptions{MaxK: 8})
	if len(j.Groups) != 7 || !errors.Is(j.Err, combin.ErrRankOverflow) {
		t.Errorf("96 nodes to k=8: %d groups, error %v; want 7 and the budget's ErrRankOverflow", len(j.Groups), j.Err)
	}
	res, err := WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 12})
	if err != nil || res.FirstFailure != 2 || len(res.PerK) != 2 {
		t.Errorf("stopping search: %+v, %v", res, err)
	}
	res, err = WorstCaseCtx(context.Background(), g, WorstCaseOptions{MaxK: 12, KeepGoing: true})
	if err == nil || !strings.Contains(err.Error(), "cardinality 9 out of range") || len(res.PerK) != 8 {
		t.Errorf("exhausting search: %d cardinalities, error %v", len(res.PerK), err)
	}
}

// TestTilingIsTheDocumentedOne pins the trial tiling: blocks of
// DefaultSampledBlock in memory, of exactly the shard size otherwise —
// block b on stream b, the last one short — numbered in plan order. The
// points of a profile share one set of order blocks, whose K is the
// window's smallest.
func TestTilingIsTheDocumentedOne(t *testing.T) {
	g := mirrorGraph(12) // 24 nodes
	for _, tc := range []struct{ shard, block int64 }{{0, DefaultSampledBlock}, {30000, 30000}} {
		pj := NewProfileJob(g, ProfileOptions{Trials: 150000, MinK: 6, MaxK: 7}, tc.shard)
		per := int((150000 + tc.block - 1) / tc.block)
		if len(pj.Groups) != 1 || len(pj.Groups[0]) != per {
			t.Fatalf("shard %d: %d groups, %d units, want 1 and %d", tc.shard, len(pj.Groups), len(pj.Groups[0]), per)
		}
		for i, u := range pj.Groups[0] {
			b := int64(i)
			if u.ID != i || u.K != 6 || u.Stream != uint64(b) || u.Trials != min(tc.block, 150000-b*tc.block) {
				t.Errorf("shard %d: unit %d is %+v", tc.shard, i, u)
			}
		}
	}
}
