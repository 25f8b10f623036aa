package plan

import (
	"errors"
	"math"
	"sync"

	"patchindex/internal/core"
	"patchindex/internal/exec"
)

// Access path chooser. The cost formulas in cost.go price the individual
// plan shapes; this file turns them into a decision layer the query
// compiler (internal/query) drives per plan node — and, through
// LowerUnary, the engine's Distinct/SortQuery entry points — fed by live
// statistics: partition row counts and patch counts from the captured
// snapshot (engine.Table.PartitionIndexStats exposes the same numbers
// outside a snapshot), dimension-side cardinality estimates, and runtime feedback
// correcting those estimates between queries.

// Access identifies the physical access path chosen for a plan node.
type Access int

const (
	// AccessReference is the unoptimized plan: full scans and hash
	// operators only.
	AccessReference Access = iota
	// AccessPatchIndex is the paper's split plan: exclude_patches /
	// use_patches streams recombined (Section 3.3).
	AccessPatchIndex
	// AccessJoinIndex resolves a join through a precomputed rowID
	// mapping (internal/joinindex) instead of evaluating it.
	AccessJoinIndex
)

func (a Access) String() string {
	switch a {
	case AccessPatchIndex:
		return "patchindex"
	case AccessJoinIndex:
		return "joinindex"
	default:
		return "reference"
	}
}

// costGatherTuple is the per-tuple weight of resolving a join through a
// joinindex: a positional gather per fact row, no hashing and no dim
// subtree evaluation. Cheaper than a hash probe, pricier than a scan.
const costGatherTuple = 3.0

// CostJoinIndex estimates resolving a fact ⋈ dim join of factRows
// through a precomputed joinindex.
func CostJoinIndex(factRows uint64) float64 {
	return float64(factRows) * (costScanTuple + costGatherTuple)
}

// JoinCosts reports the estimated cost of each candidate join access
// path; unavailable paths are +Inf.
type JoinCosts struct {
	Reference  float64
	PatchIndex float64
	JoinIndex  float64
}

// ChooseJoin picks the cheapest access path for a fact ⋈ dim join.
// havePatch means the fact join key carries a NSC PatchIndex; haveJI
// means a joinindex covers exactly this join. Ties go to the earlier
// candidate in (reference, patchindex, joinindex) order, keeping the
// decision deterministic.
func ChooseJoin(factRows, patches, dimRows uint64, havePatch, haveJI bool) (Access, JoinCosts) {
	c := JoinCosts{
		Reference:  CostJoinReference(factRows, dimRows),
		PatchIndex: math.Inf(1),
		JoinIndex:  math.Inf(1),
	}
	if havePatch {
		c.PatchIndex = CostJoinPatch(factRows, patches, dimRows)
	}
	if haveJI {
		c.JoinIndex = CostJoinIndex(factRows)
	}
	best := AccessReference
	bestCost := c.Reference
	if c.PatchIndex < bestCost {
		best, bestCost = AccessPatchIndex, c.PatchIndex
	}
	if c.JoinIndex < bestCost {
		best = AccessJoinIndex
	}
	return best, c
}

// ChooseDistinct picks the access path for DISTINCT over an indexed
// column (joinindex does not apply).
func ChooseDistinct(rows, patches uint64, havePatch bool) Access {
	if havePatch && CostDistinctPatch(rows, patches) < CostDistinctReference(rows) {
		return AccessPatchIndex
	}
	return AccessReference
}

// ChooseSort picks the access path for ORDER BY over an indexed column.
func ChooseSort(rows, patches uint64, havePatch bool) Access {
	if havePatch && CostSortPatch(rows, patches) < CostSortReference(rows) {
		return AccessPatchIndex
	}
	return AccessReference
}

// Mode forces or frees the access-path choice of a plan node. Forced
// modes apply wherever the respective index exists.
type Mode int

const (
	// ModeAuto lets the cost model choose (Section 3.5).
	ModeAuto Mode = iota
	// ModeReference always takes the unoptimized plan.
	ModeReference
	// ModePatchIndex takes the PatchIndex plan.
	ModePatchIndex
	// ModeJoinIndex resolves joins through a joinindex; other nodes
	// choose as in ModeAuto.
	ModeJoinIndex
)

// Unary is a choosable single-column node over a partitioned scan:
// DISTINCT Col, or, with Sort set, ORDER BY Col (descending with Desc).
// Col is a position in the partition views' schema.
type Unary struct {
	Col  int
	Sort bool
	Desc bool
}

// Choice reports how LowerUnary planned a node.
type Choice struct {
	// Access is the path taken.
	Access Access
	// Indexed reports that the column carries an index the patch plan
	// can use: NUC for DISTINCT, NSC in the requested direction for
	// ORDER BY. Without one there was nothing to choose.
	Indexed bool
	// Forced reports a mode override (no cost comparison happened).
	Forced bool
	// Rows and Patches are the index statistics the choice used.
	Rows, Patches uint64
}

// ErrNoPatchIndex is returned when ModePatchIndex forces the patch plan
// on a column without a fitting index.
var ErrNoPatchIndex = errors.New("no PatchIndex of the required constraint and direction")

// LowerUnary plans a choosable DISTINCT or ORDER BY. It reads row and
// patch counts, constraint kind and direction from inputs[i].Index, and
// takes the patch plan only for a NUC index (DISTINCT) or a NSC index
// sorted in the requested direction (ORDER BY): the patch-free stream of
// any other index is neither unique nor ordered as the plan assumes.
func LowerUnary(inputs []PartitionInput, u Unary, mode Mode, opts Options) (exec.Operator, Choice, error) {
	var ch Choice
	if len(inputs) > 0 && inputs[0].Index != nil {
		x := inputs[0].Index
		if u.Sort {
			ch.Indexed = x.ConstraintKind() == core.NearlySorted && x.Descending() == u.Desc
		} else {
			ch.Indexed = x.ConstraintKind() == core.NearlyUnique
		}
		for _, in := range inputs {
			ch.Rows += in.Index.Rows()
			ch.Patches += in.Index.NumPatches()
		}
	}
	switch mode {
	case ModeReference:
		ch.Access, ch.Forced = AccessReference, true
	case ModePatchIndex:
		if !ch.Indexed {
			return nil, ch, ErrNoPatchIndex
		}
		ch.Access, ch.Forced = AccessPatchIndex, true
	default:
		if u.Sort {
			ch.Access = ChooseSort(ch.Rows, ch.Patches, ch.Indexed)
		} else {
			ch.Access = ChooseDistinct(ch.Rows, ch.Patches, ch.Indexed)
		}
	}
	switch {
	case u.Sort && ch.Access == AccessPatchIndex:
		return Sort(inputs, u.Col, u.Desc, opts), ch, nil
	case u.Sort:
		return SortReference(inputs, u.Col, u.Desc, opts), ch, nil
	case ch.Access == AccessPatchIndex:
		return Distinct(inputs, u.Col, opts), ch, nil
	default:
		return DistinctReference(inputs, u.Col, opts), ch, nil
	}
}

// ErosionExceptionRate inverts the cost model for the maintenance
// daemon: it returns the exception rate at which a partition's
// PatchIndex plan costs `erosion` (a fraction, e.g. 0.25) more than the
// same plan with zero patches — the point where index quality has
// measurably eroded and a repair pays for itself. The rate is capped at
// the break-even point beyond which the optimizer would abandon the
// patch plan for the reference plan entirely; repairing later than that
// is strictly wasted index maintenance. Derived from the distinct-plan
// formulas (the patch term patches*costHashTuple is identical in the
// sort and join plans, so one inversion serves all).
func ErosionExceptionRate(rows uint64, erosion float64) float64 {
	if rows == 0 || erosion <= 0 {
		return 1 // nothing to erode; never triggers
	}
	r := float64(rows)
	base := r*(costScanTuple+2*costSelectTuple) + costCloneFixed
	erode := erosion * base / (costHashTuple * r)
	breakEven := (r*(costScanTuple+costHashTuple) - base) / (costHashTuple * r)
	rate := math.Min(erode, breakEven)
	if rate < 0 {
		// Partition too small for the patch plan to ever win: any
		// exceptions at all mean the reference plan is used, so repair
		// has no plan-cost payoff. Report 1 (never trigger on cost).
		return 1
	}
	return math.Min(rate, 1)
}

// Chooser carries runtime cardinality feedback across queries: the
// compiler estimates an operator's output rows, execution meters the
// actual count, and Observe folds the ratio into an EWMA correction
// factor keyed by the operator's fingerprint. Subsequent compilations of
// the same (or a structurally identical) subtree get their estimates
// rescaled by Adjust, biasing access-path choices toward observed
// reality. Safe for concurrent use; zero value is NOT usable, call
// NewChooser.
type Chooser struct {
	mu     sync.Mutex // guards factor; lock-rank: none leaf lock, no rank interactions
	factor map[string]float64
}

// NewChooser returns an empty feedback store.
func NewChooser() *Chooser {
	return &Chooser{factor: make(map[string]float64)}
}

// feedbackAlpha is the EWMA weight of the newest observation.
const feedbackAlpha = 0.5

// Observe records that the subtree identified by key was estimated to
// produce est rows and actually produced actual.
func (c *Chooser) Observe(key string, est, actual uint64) {
	if c == nil {
		return
	}
	if est == 0 {
		est = 1
	}
	ratio := float64(actual) / float64(est)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factor[key]; ok {
		c.factor[key] = f*(1-feedbackAlpha) + ratio*feedbackAlpha
	} else {
		c.factor[key] = ratio
	}
}

// Adjust rescales a fresh estimate for key by the learned correction
// factor. Unknown keys (and a nil Chooser) pass est through unchanged.
func (c *Chooser) Adjust(key string, est uint64) uint64 {
	if c == nil {
		return est
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.factor[key]
	if !ok {
		return est
	}
	adjusted := float64(est) * f
	if adjusted < 0 {
		return 0
	}
	return uint64(adjusted + 0.5)
}

// Factor reports the learned correction factor for key (1 when none).
func (c *Chooser) Factor(key string) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factor[key]; ok {
		return f
	}
	return 1
}
