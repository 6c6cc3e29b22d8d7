package eclat

import (
	"context"
	"sort"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// CharmStats counts the work of a CHARM run.
type CharmStats struct {
	Scans         int
	Intersections int64
	Merges        int64 // itemset extensions via the tid-set containment properties
	Subsumptions  int64 // candidates discarded by the closed-set check
	// Kernel is the representation-dispatch accounting (see Stats.Kernel).
	Kernel tidlist.KernelStats
}

// MineClosedCHARMOpts discovers the closed frequent itemsets with the
// CHARM search (Zaki & Hsiao) — the successor algorithm that prunes the
// search space itself rather than filtering afterwards like
// MineClosedOpts. Its four tid-set properties fold equal-support
// extensions into their generators: when t(X) = t(Y) the two itemsets
// always co-occur and collapse into one node; when t(X) ⊂ t(Y), X's
// closure absorbs Y's items; only incomparable tid-sets spawn new search
// nodes. A candidate enters the closed set only if no equal-support
// superset is already there.
//
// The result equals MineClosedOpts's (tested property); the work profile
// differs — CHARM never enumerates the non-closed lattice. On the engine
// the whole search is one task (extensions merge across prefixes, so it
// is not class-decomposable): Workers, TopK and MustContain are ignored.
func MineClosedCHARMOpts(ctx context.Context, d *db.Database, minsup int, opts Options) (*mining.Result, CharmStats, error) {
	if minsup < 1 {
		minsup = 1
	}
	opts.TopK, opts.MustContain = 0, nil
	var st Stats
	st.Workers = 1

	v := buildVerticalItems(d, minsup, &st)
	eng := newEngine(v, minsup, opts, policyCharm{})
	ext, err := eng.run(ctx, 1, &st, nil, v.res.Add)
	ce := ext.(*charmExt)
	cst := CharmStats{
		Scans:         st.Scans,
		Intersections: st.Intersections,
		Merges:        ce.merges,
		Subsumptions:  ce.subs,
		Kernel:        st.Kernel,
	}
	if err != nil {
		return nil, cst, err
	}
	v.res.Sort()
	return v.res, cst, nil
}

// buildVerticalItems is the one-scan initialization CHARM starts from:
// per-item tid-lists (CHARM needs the 1-itemset lists; unlike Eclat it
// skips the triangular pair-counting pass for a simpler lattice root).
// The frequent singletons form the root members of one engine task.
func buildVerticalItems(d *db.Database, minsup int, st *Stats) *vertical {
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	st.Scans++
	var roots []member
	for it, l := range tidlist.BuildItems(d, nil) {
		if len(l) >= minsup {
			roots = append(roots, member{set: itemset.Itemset{itemset.Item(it)}, tids: l})
		}
	}
	st.Classes = 1
	return &vertical{res: res, classes: make([]eqclass.Class, 1), roots: [][]member{roots}}
}

// charmNode is one search node: an itemset (which may grow via the
// containment properties) and its tid-set.
type charmNode struct {
	set  itemset.Itemset
	tids tidlist.Set
}

// charmChild defers itemset materialization: the parent's set may still
// grow while its children are being generated, so a child records only
// the partner's items and composes with the parent's final set.
type charmChild struct {
	extra itemset.Itemset
	tids  tidlist.Set
}

// charmExtend processes one level of sibling nodes, sorted by increasing
// support (CHARM's ordering heuristic: low-support nodes merge into their
// high-support partners most often). Work counters land in st, the
// merge/subsumption tallies in ext. Cancellation is checked once per
// node; on an expired ctx the walk unwinds with a partial accumulator
// (the caller discards it).
func charmExtend(ctx context.Context, nodes []*charmNode, minsup int, acc *charmAcc, st *Stats, ext *charmExt) {
	sort.SliceStable(nodes, func(i, j int) bool {
		si, sj := nodes[i].tids.Support(), nodes[j].tids.Support()
		if si != sj {
			return si < sj
		}
		return nodes[i].set.Less(nodes[j].set)
	})
	for i := range nodes {
		if nodes[i] == nil {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		var children []charmChild
		for j := i + 1; j < len(nodes); j++ {
			if nodes[j] == nil {
				continue
			}
			st.Intersections++
			// No scratch: surviving children keep the result, so every
			// intersection gets fresh storage (as the List-only code did).
			y, _ := tidlist.IntersectSets(nil, nodes[i].tids, nodes[j].tids, &st.Kernel)
			ySup := y.Support()
			switch {
			case ySup == nodes[i].tids.Support() && ySup == nodes[j].tids.Support():
				// t(Xi) = t(Xj): Xj always co-occurs with Xi — fold it in.
				ext.merges++
				nodes[i].set = nodes[i].set.Union(nodes[j].set)
				nodes[j] = nil
			case ySup == nodes[i].tids.Support():
				// t(Xi) ⊂ t(Xj): Xi implies Xj; Xi's closure absorbs it,
				// Xj lives on (it occurs without Xi too).
				ext.merges++
				nodes[i].set = nodes[i].set.Union(nodes[j].set)
			case ySup == nodes[j].tids.Support():
				// t(Xi) ⊃ t(Xj): Xj implies Xi; the combination replaces
				// Xj, growing under Xi.
				if ySup >= minsup {
					children = append(children, charmChild{extra: nodes[j].set, tids: y})
				}
				nodes[j] = nil
			default:
				if ySup >= minsup {
					children = append(children, charmChild{extra: nodes[j].set, tids: y})
				}
			}
		}
		if len(children) > 0 {
			level := make([]*charmNode, len(children))
			for k, ch := range children {
				level[k] = &charmNode{set: nodes[i].set.Union(ch.extra), tids: ch.tids}
			}
			charmExtend(ctx, level, minsup, acc, st, ext)
		}
		acc.insert(nodes[i].set, nodes[i].tids.Support(), nodes[i].tids, ext)
	}
}

// charmAcc is the closed-set accumulator with the standard
// tid-sum-hashed subsumption check: a candidate is dropped iff an
// equal-support superset is already present.
type charmAcc struct {
	byHash map[int64][]mining.FrequentItemset
}

func (a *charmAcc) insert(set itemset.Itemset, sup int, tids tidlist.Set, ext *charmExt) {
	h := tidlist.HashTIDs(tids)
	for _, f := range a.byHash[h] {
		if f.Support == sup && set.SubsetOf(f.Set) {
			ext.subs++
			return
		}
	}
	a.byHash[h] = append(a.byHash[h], mining.FrequentItemset{Set: set, Support: sup})
}
