//===- core/EarliestLatest.cpp - Placement range analysis -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// Earliest(u) implementation note. The paper computes Earliest(u) with the
/// Test/Rcount walk of Figure 8; Claim 4.1 and Lemmas 4.2-4.4 characterize
/// the result: the earliest single point that (a) dominates u and (b) is not
/// dominated-by-passed by any definition with a true dependence to u. We
/// compute that characterization directly: every dependence source d
/// contributes a *barrier* — the first position on its chain toward u that
/// dominates u. That is slotAfter(d) when d itself dominates u, the
/// phi-merge/phi-exit where d's value surfaces when it does not, and the
/// phi-entry at the carrying loop's header for loop-carried sources.
/// Earliest(u) is the latest barrier (they are totally ordered: all dominate
/// u). This is exactly the set of "two node-disjoint backpath" merge points
/// Lemma 4.3's argument pivots on, and it is robust against the
/// double-counting subtleties that a literal reading of Rcount exhibits
/// around zero-trip edges and preserving defs.
///
/// Both bounds read the array's defs off the SSA's per-loop def index
/// (Ssa::arrayDefsInLoop) instead of enumerating every reaching def, which
/// is exact because of three facts:
///
///  (a) every regular def inside a loop that encloses u reaches u, and any
///      other def has common nesting level (CNL) 0 with u. So Latest(u),
///      a max of DepLevel <= CNL, scans the defs whose CNL is exactly l for
///      l = NL(u) down to 1 — each level a range lookup — and stops once no
///      remaining level can raise the max;
///  (b) whatever an enclosing loop's back edge reaches lies inside that loop
///      and can only add a carried barrier: its header, for a dependence
///      carried at its level. The index supplies those barriers directly,
///      deepest level first, so the walk never takes such a back edge;
///  (c) without those back edges the absorber (the chain position where a
///      source's data surfaces) only rises up u's dominator chain as the
///      walk moves back, so a subtree whose absorber is no deeper than the
///      current barrier cannot raise it and is skipped.
///
/// The walk therefore follows only loop-independent flow: the chain of
/// preserving defs back from u, through merges and the bodies and
/// pre-loop values of sibling loops. Both passes count their dependence
/// solves and walk steps (RangeWork) for the placement counters. The
/// enumerate-everything forms are kept as reference implementations for
/// the range-analysis oracle test.
///
//===----------------------------------------------------------------------===//

#include "core/EarliestLatest.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <span>

using namespace gca;

namespace {

/// The dependence summary of one def against the entry's refs: whether any
/// ref has a loop-independent dependence, and the deepest level carrying
/// one (0 if none). Epoch-tagged: valid when equal to the scratch epoch.
struct DefDeps {
  int Epoch = 0;
  bool AnyLI = false;
  int MaxCarried = 0;
};

/// Per-thread range-analysis state, reused across entries: the walk touches
/// only a fraction of the def table per entry, so epoch tags beat full
/// clears. thread_local because the batch driver and the server compile
/// units concurrently.
struct RangeScratch {
  std::vector<int64_t> BestDepth;
  std::vector<int> BestEpoch;
  std::vector<DefDeps> Deps;
  DepDirs Dirs;
  int Epoch = 0;

  /// Opens a fresh epoch sized for \p NumDefs defs.
  void begin(unsigned NumDefs) {
    if (BestEpoch.size() < NumDefs) {
      BestDepth.resize(NumDefs);
      BestEpoch.resize(NumDefs, 0);
      Deps.resize(NumDefs);
    }
    ++Epoch;
  }
};

RangeScratch &rangeScratch() {
  thread_local RangeScratch SC;
  return SC;
}

/// Calls \p F on each regular def of array \p ArrayId whose common nesting
/// level with a use in loop nest \p Nest is exactly \p Level (1-based),
/// in program order, until \p F returns true: the defs inside Nest[Level-1]
/// minus those inside Nest[Level], two ranges of the index.
template <typename Fn>
void forEachDefAtLevel(const Ssa &S, int ArrayId, const std::vector<int> &Nest,
                       int Level, Fn &&F) {
  std::span<const int> Outer = S.arrayDefsInLoop(ArrayId, Nest[Level - 1]);
  const int *Gap = Outer.data() + Outer.size(), *GapEnd = Gap;
  if (Level < static_cast<int>(Nest.size())) {
    std::span<const int> Inner = S.arrayDefsInLoop(ArrayId, Nest[Level]);
    Gap = Inner.data();
    GapEnd = Inner.data() + Inner.size();
  }
  for (const int *I = Outer.data(); I != Gap; ++I)
    if (F(*I))
      return;
  for (const int *I = GapEnd; I != Outer.data() + Outer.size(); ++I)
    if (F(*I))
      return;
}

/// Dominance depth used to order slots (deeper = later).
int64_t slotDepth(const AnalysisContext &Ctx, const Slot &S) {
  return static_cast<int64_t>(Ctx.DT.depth(S.Node)) * 1000000 + S.Index;
}

/// Computes Earliest(u) for one entry: carried barriers from the def index,
/// then the loop-independent walk (see the implementation note above).
class EarliestWalk {
public:
  EarliestWalk(const AnalysisContext &Ctx, const CommEntry &E,
               RangeScratch &SC, RangeWork &Work)
      : Ctx(Ctx), E(E), UseNest(Ctx.G.loopNestOf(E.UseStmt)),
        UsePoint(Ctx.G.slotBefore(E.UseStmt)), SC(SC), Work(Work) {}

  Slot run() {
    int Var = Ctx.S.varOfArray(E.ArrayId);
    SC.begin(Ctx.S.numDefs());
    Slot EntrySlot = Ctx.S.def(Ctx.S.entryDef(Var)).AfterSlot;
    Barrier = EntrySlot;
    BarrierDepth = slotDepth(Ctx, EntrySlot);
    carriedBarrier();
    walk(Ctx.S.reachingBefore(E.UseStmt, Var), EntrySlot, BarrierDepth);
    return Barrier;
  }

private:
  /// One subscript solve per (def, ref), cached for the entry: the carried
  /// scan and the walk may both ask about the same def.
  const DefDeps &depsOf(int DefId) {
    DefDeps &D = SC.Deps[DefId];
    if (D.Epoch == SC.Epoch)
      return D;
    D.Epoch = SC.Epoch;
    D.AnyLI = false;
    D.MaxCarried = 0;
    const AssignStmt *Def = Ctx.S.def(DefId).Stmt;
    for (const ArrayRef &Ref : E.Refs) {
      ++Work.Solves;
      Ctx.Dep.flowDirections(Def, E.UseStmt, Ref, SC.Dirs);
      D.AnyLI |= DepTester::loopIndependentFromDirs(SC.Dirs);
      for (int L = SC.Dirs.CNL; L > D.MaxCarried; --L)
        if (DepTester::carriedFromDirs(SC.Dirs, L)) {
          D.MaxCarried = L;
          break;
        }
    }
    return D;
  }

  /// A dependence carried at level k flows around the level-k loop's back
  /// edge, so its barrier is that loop's header top (the phi-entry point).
  /// Levels are scanned deepest first: the first level some def carries a
  /// dependence at is the barrier, and a header no deeper than the current
  /// barrier ends the scan, since every shallower header loses too. A def
  /// carries at most at its own CNL, so once the deepest carried level seen
  /// equals the level being scanned, no later def can beat it.
  void carriedBarrier() {
    int Deepest = 0; // Deepest carried level among the defs scanned.
    for (int K = static_cast<int>(UseNest.size()); K >= 1; --K) {
      Slot Header{Ctx.G.loop(UseNest[K - 1]).Header, 0};
      int64_t Depth = slotDepth(Ctx, Header);
      if (Depth <= BarrierDepth)
        return;
      if (Deepest < K)
        forEachDefAtLevel(Ctx.S, E.ArrayId, UseNest, K, [&](int DefId) {
          Deepest = std::max(Deepest, depsOf(DefId).MaxCarried);
          return Deepest == K;
        });
      if (Deepest == K) {
        Barrier = Header;
        BarrierDepth = Depth;
        return;
      }
    }
  }

  /// True when loop \p LoopId encloses the use.
  bool enclosesUse(int LoopId) const {
    int Level = Ctx.G.loop(LoopId).Level;
    return Level <= static_cast<int>(UseNest.size()) &&
           UseNest[Level - 1] == LoopId;
  }

  /// Walks the use-def chain from the use toward definitions; \p Absorber
  /// is the most recently passed chain position that dominates the use —
  /// the first dominating point (walking back up toward the use) at which
  /// data defined here surfaces. A loop-independent source pins Earliest to
  /// the absorber current when it is reached. A def may be revisited with a
  /// deeper absorber so the deepest barrier is always found.
  void walk(int DefId, Slot Absorber, int64_t AbsDepth) {
    if (DefId < 0)
      return;
    ++Work.Steps;
    const SsaDef &D = Ctx.S.def(DefId);
    if (Ctx.DT.slotDominates(D.AfterSlot, UsePoint)) {
      Absorber = D.AfterSlot;
      AbsDepth = slotDepth(Ctx, Absorber);
    }
    // Fact (c): nothing below can surface deeper than this absorber.
    if (AbsDepth <= BarrierDepth)
      return;
    if (SC.BestEpoch[DefId] == SC.Epoch && SC.BestDepth[DefId] >= AbsDepth)
      return;
    SC.BestEpoch[DefId] = SC.Epoch;
    SC.BestDepth[DefId] = AbsDepth;

    switch (D.Kind) {
    case DefKind::Entry:
      return;
    case DefKind::Regular:
      if (depsOf(DefId).AnyLI) {
        // Loop-independent source: the chain is pinned here.
        Barrier = Absorber;
        BarrierDepth = AbsDepth;
        return;
      }
      walk(D.Prev, Absorber, AbsDepth); // Preserving: look through.
      return;
    case DefKind::PhiEntry:
      // Fact (b): an enclosing loop's back edge only adds carried barriers,
      // which carriedBarrier() took from the index. A sibling loop's body
      // goes first: its sources surface at the postexit, deeper than any
      // pre-loop value's.
      if (!enclosesUse(D.LoopId))
        walk(D.Params[1], Absorber, AbsDepth);
      walk(D.Params[0], Absorber, AbsDepth);
      return;
    case DefKind::PhiExit:  // [loop-exit value, zero-trip value]
    case DefKind::PhiMerge: // [then, else]
      for (int P : D.Params)
        walk(P, Absorber, AbsDepth);
      return;
    }
  }

  const AnalysisContext &Ctx;
  const CommEntry &E;
  const std::vector<int> &UseNest;
  Slot UsePoint;
  Slot Barrier;
  int64_t BarrierDepth = 0;
  RangeScratch &SC;
  RangeWork &Work;
};

/// The reference walk's state: per-def carried-header spans into a shared
/// pool, solved once per def and replayed on revisits.
struct RefScratch {
  struct Contribution {
    int Epoch = 0;
    bool AnyLI = false;
    int PoolBegin = 0, PoolEnd = 0;
  };
  std::vector<int64_t> BestDepth;
  std::vector<int> BestEpoch;
  std::vector<Contribution> Contrib;
  std::vector<std::pair<Slot, int64_t>> HeaderPool;
  DepDirs Dirs;
  int Epoch = 0;
};

/// The reference Earliest walk: follows every phi parameter, back edges and
/// zero-trip values included, from the use to ENTRY or to a pinning
/// source, and takes carried barriers from the defs it visits. Kept for the
/// range-analysis oracle test.
class ReferenceEarliestWalk {
public:
  ReferenceEarliestWalk(const AnalysisContext &Ctx, const CommEntry &E,
                        RefScratch &SC, RangeWork &Work)
      : Ctx(Ctx), E(E), UseNest(Ctx.G.loopNestOf(E.UseStmt)),
        UsePoint(Ctx.G.slotBefore(E.UseStmt)), SC(SC), Work(Work) {}

  Slot run() {
    int Var = Ctx.S.varOfArray(E.ArrayId);
    if (SC.BestEpoch.size() < Ctx.S.numDefs()) {
      SC.BestDepth.resize(Ctx.S.numDefs());
      SC.BestEpoch.resize(Ctx.S.numDefs(), 0);
      SC.Contrib.resize(Ctx.S.numDefs());
    }
    ++SC.Epoch;
    SC.HeaderPool.clear();
    Slot EntrySlot = Ctx.S.def(Ctx.S.entryDef(Var)).AfterSlot;
    Barrier = EntrySlot;
    BarrierDepth = slotDepth(Ctx, EntrySlot);
    walk(Ctx.S.reachingBefore(E.UseStmt, Var), EntrySlot, BarrierDepth);
    return Barrier;
  }

private:
  /// Pushes the barriers of def \p DefId's dependences to the use (solved
  /// once per def, replayed on revisits); returns true when a
  /// loop-independent dependence pins this chain.
  bool pushBarriers(int DefId, const Slot &Absorber, int64_t AbsDepth) {
    RefScratch::Contribution &C = SC.Contrib[DefId];
    if (C.Epoch != SC.Epoch) {
      C.Epoch = SC.Epoch;
      C.AnyLI = false;
      C.PoolBegin = static_cast<int>(SC.HeaderPool.size());
      for (const ArrayRef &Ref : E.Refs) {
        ++Work.Solves;
        Ctx.Dep.flowDirections(Ctx.S.def(DefId).Stmt, E.UseStmt, Ref,
                               SC.Dirs);
        C.AnyLI |= DepTester::loopIndependentFromDirs(SC.Dirs);
        for (int L = 1; L <= SC.Dirs.CNL; ++L) {
          if (!DepTester::carriedFromDirs(SC.Dirs, L))
            continue;
          Slot Header{Ctx.G.loop(UseNest[L - 1]).Header, 0};
          SC.HeaderPool.push_back({Header, slotDepth(Ctx, Header)});
        }
      }
      C.PoolEnd = static_cast<int>(SC.HeaderPool.size());
    }
    for (int I = C.PoolBegin; I != C.PoolEnd; ++I)
      if (SC.HeaderPool[I].second > BarrierDepth) {
        Barrier = SC.HeaderPool[I].first;
        BarrierDepth = SC.HeaderPool[I].second;
      }
    if (C.AnyLI && AbsDepth > BarrierDepth) {
      Barrier = Absorber;
      BarrierDepth = AbsDepth;
    }
    return C.AnyLI;
  }

  void walk(int DefId, Slot Absorber, int64_t AbsDepth) {
    if (DefId < 0)
      return;
    ++Work.Steps;
    const SsaDef &D = Ctx.S.def(DefId);
    if (Ctx.DT.slotDominates(D.AfterSlot, UsePoint)) {
      Absorber = D.AfterSlot;
      AbsDepth = slotDepth(Ctx, Absorber);
    }
    if (SC.BestEpoch[DefId] == SC.Epoch && SC.BestDepth[DefId] >= AbsDepth)
      return;
    SC.BestEpoch[DefId] = SC.Epoch;
    SC.BestDepth[DefId] = AbsDepth;
    switch (D.Kind) {
    case DefKind::Entry:
      return;
    case DefKind::Regular:
      if (pushBarriers(DefId, Absorber, AbsDepth))
        return;
      walk(D.Prev, Absorber, AbsDepth);
      return;
    case DefKind::PhiEntry:
    case DefKind::PhiExit:
    case DefKind::PhiMerge:
      for (int P : D.Params)
        walk(P, Absorber, AbsDepth);
      return;
    }
  }

  const AnalysisContext &Ctx;
  const CommEntry &E;
  const std::vector<int> &UseNest;
  Slot UsePoint;
  Slot Barrier;
  int64_t BarrierDepth = 0;
  RefScratch &SC;
  RangeWork &Work;
};

} // namespace

Slot gca::computeEarliestSlot(const AnalysisContext &Ctx, const CommEntry &E,
                              RangeWork &Work) {
  return EarliestWalk(Ctx, E, rangeScratch(), Work).run();
}

Slot gca::computeEarliestSlot(const AnalysisContext &Ctx,
                              const CommEntry &E) {
  RangeWork Work;
  return computeEarliestSlot(Ctx, E, Work);
}

/// Latest(u) from CommLevel (Section 4.2): placement before the statement
/// (CommLevel == NL(u)) or in the preheader of the loop at level
/// CommLevel + 1.
static void setLatest(const AnalysisContext &Ctx, CommEntry &E,
                      int CommLevel) {
  const std::vector<int> &Nest = Ctx.G.loopNestOf(E.UseStmt);
  assert(CommLevel <= static_cast<int>(Nest.size()) &&
         "communication level deeper than the use");
  E.CommLevel = CommLevel;
  if (CommLevel == static_cast<int>(Nest.size()))
    E.LatestSlot = Ctx.G.slotBefore(E.UseStmt);
  else
    E.LatestSlot = {Ctx.G.loop(Nest[CommLevel]).Preheader, 0};
}

/// Latest(u) of Section 4.2: CommLevel = max DepLevel over reaching regular
/// defs. By fact (a) those are the defs inside u's loops, and since
/// DepLevel(d, u) <= CNL(d, u) the levels are scanned from NL(u) down: once
/// the max reaches the level being scanned, no remaining def can raise it.
static void computeLatest(const AnalysisContext &Ctx, CommEntry &E,
                          RangeWork &Work) {
  const std::vector<int> &Nest = Ctx.G.loopNestOf(E.UseStmt);
  DepDirs &Dirs = rangeScratch().Dirs;
  int CommLevel = 0;
  for (int L = static_cast<int>(Nest.size()); L > CommLevel; --L)
    forEachDefAtLevel(Ctx.S, E.ArrayId, Nest, L, [&](int DefId) {
      for (const ArrayRef &Ref : E.Refs) {
        ++Work.Solves;
        Ctx.Dep.flowDirections(Ctx.S.def(DefId).Stmt, E.UseStmt, Ref, Dirs);
        CommLevel = std::max(CommLevel, DepTester::depLevelFromDirs(Dirs));
        if (CommLevel == L)
          return true; // Saturated at this level and every one below.
      }
      return false;
    });
  setLatest(Ctx, E, CommLevel);
}

/// The reference Latest: max DepLevel over the enumerated reaching regular
/// defs, with the CNL prescreen. Kept for the range-analysis oracle test.
static void computeLatestReference(const AnalysisContext &Ctx, CommEntry &E,
                                   RangeWork &Work) {
  int Var = Ctx.S.varOfArray(E.ArrayId);
  std::vector<int> Defs;
  bool ReachesEntry = false;
  Ctx.S.collectReachingRegularDefs(Ctx.S.reachingBefore(E.UseStmt, Var),
                                   Defs, ReachesEntry);
  int NL = static_cast<int>(Ctx.G.loopNestOf(E.UseStmt).size());
  int CommLevel = 0;
  DepDirs Dirs;
  for (int DId : Defs) {
    if (CommLevel == NL)
      break;
    const AssignStmt *D = Ctx.S.def(DId).Stmt;
    if (Ctx.Dep.commonNestingLevel(D, E.UseStmt) <= CommLevel)
      continue;
    for (const ArrayRef &Ref : E.Refs) {
      ++Work.Solves;
      Ctx.Dep.flowDirections(D, E.UseStmt, Ref, Dirs);
      CommLevel = std::max(CommLevel, DepTester::depLevelFromDirs(Dirs));
    }
  }
  setLatest(Ctx, E, CommLevel);
}

/// Enumerates the slots of the dominator-tree segment [Lo, Hi] (both slots
/// included; Lo must dominate Hi), in dominance order, appending to \p Out
/// (cleared first; the caller's scratch vector keeps its capacity across
/// entries).
static void slotRange(const AnalysisContext &Ctx, const Slot &Lo,
                      const Slot &Hi, std::vector<Slot> &Out) {
  // Emitted directly in dominance order (earliest first): the blocks on the
  // idom chain from Lo down to Hi have strictly increasing depth, and slots
  // within one block are ascending, so no sort is needed.
  Out.clear();
  if (Lo.Node == Hi.Node) {
    for (int I = Lo.Index; I <= Hi.Index; ++I)
      Out.push_back({Lo.Node, I});
    return;
  }
  // Collect the interior chain Hi -> Lo (exclusive), then walk it backward.
  std::vector<int> Chain;
  int C = Ctx.DT.idom(Hi.Node);
  while (C >= 0 && C != Lo.Node) {
    Chain.push_back(C);
    C = Ctx.DT.idom(C);
  }
  assert(C == Lo.Node &&
         "Earliest block not on the dominator chain of Latest (Claim 4.5)");
  Slot End = Ctx.G.slotAtEnd(Lo.Node);
  for (int I = Lo.Index; I <= End.Index; ++I)
    Out.push_back({Lo.Node, I});
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    Slot E2 = Ctx.G.slotAtEnd(*It);
    for (int I = 0; I <= E2.Index; ++I)
      Out.push_back({*It, I});
  }
  for (int I = 0; I <= Hi.Index; ++I)
    Out.push_back({Hi.Node, I});
}

/// Candidate marking of Figure 9(e): slots from Latest(u) up the dominator
/// tree to Earliest(u).
static void markCandidates(const AnalysisContext &Ctx, const CommEntry &E,
                           std::vector<Slot> &CandOut) {
  slotRange(Ctx, E.EarliestSlot, E.LatestSlot, CandOut);
}

/// The Section 6.2 extension: widens a reduction's placement range from the
/// single point after its sum() statement to every dominating point before
/// the first read of the result scalar (the "reversed SSA" analysis the
/// paper leaves for future work). Bails out when the result flows into a
/// phi (it escapes the straight-line region) or has no direct reader.
static void deferReduction(const AnalysisContext &Ctx, CommEntry &E,
                           std::vector<Slot> &CandOut) {
  const AssignStmt *S = E.UseStmt;
  if (!S->lhsIsScalar())
    return;
  int ScalarId = S->lhsScalarId();
  int Var = Ctx.S.varOfScalar(ScalarId);
  int Def = Ctx.S.defOfStmt(S);

  // Find the statements reading this scalar, and the set of definitions
  // backward-reachable from those reads through phi parameters (a phi that
  // never reaches a read is dead — typically the loop-exit merge of a
  // scalar that is re-assigned every iteration).
  std::vector<const AssignStmt *> Readers;
  std::vector<int> ReadRoots;
  Ctx.R.forEachStmt([&](Stmt *St) {
    auto *A = dyn_cast<AssignStmt>(St);
    if (!A || A == S)
      return;
    bool ReadsScalar = false;
    for (const RhsTerm &T : A->rhs())
      ReadsScalar |= T.K == RhsTerm::Kind::Scalar && T.ScalarId == ScalarId;
    if (!ReadsScalar)
      return;
    int Reach = Ctx.S.reachingBefore(A, Var);
    if (Reach == Def)
      Readers.push_back(A);
    else
      ReadRoots.push_back(Reach);
  });
  if (Readers.empty())
    return;

  // The value must not escape through a *live* phi to some other read.
  std::vector<char> Marked(Ctx.S.numDefs(), 0);
  std::vector<int> Work = ReadRoots;
  while (!Work.empty()) {
    int D = Work.back();
    Work.pop_back();
    if (D < 0 || Marked[D])
      continue;
    Marked[D] = 1;
    for (int P : Ctx.S.def(D).Params) {
      if (P == Def)
        return; // Escapes: another read sees it through a merge.
      Work.push_back(P);
    }
  }

  const AssignStmt *First = Readers[0];
  for (const AssignStmt *R : Readers)
    if (Ctx.G.preorderOf(R) < Ctx.G.preorderOf(First))
      First = R;
  Slot Lo = Ctx.G.slotAfter(S);
  Slot Hi = Ctx.G.slotBefore(First);
  if (!Ctx.DT.slotDominates(Lo, Hi))
    return;

  std::vector<Slot> Range;
  slotRange(Ctx, Lo, Hi, Range);
  // Keep only slots that execute before *every* reader and that are no
  // deeper than the sum statement itself (descending into a consumer's
  // loop nest would fire the combine once per iteration).
  int MaxLevel = static_cast<int>(Ctx.G.loopNestOf(S).size());
  std::vector<Slot> Kept;
  for (const Slot &P : Range) {
    if (Ctx.slotLevel(P) > MaxLevel)
      continue;
    bool All = true;
    for (const AssignStmt *R : Readers)
      All &= Ctx.DT.slotDominates(P, Ctx.G.slotBefore(R));
    if (All)
      Kept.push_back(P);
  }
  if (Kept.empty())
    return;
  E.LatestSlot = Kept.back();
  CandOut = std::move(Kept);
}

/// Range analysis of one entry, by the indexed analysis or the reference
/// one (\p Reference).
static void analyzeEntry(const AnalysisContext &Ctx, CommEntry &E,
                         const PlacementOptions &Opts,
                         std::vector<Slot> &CandOut, RangeWork &Work,
                         bool Reference) {
  // Reductions are inverted (Section 6.2): "the computation occurs first
  // (for the partial reduction operation on individual processors),
  // followed by communication for the global reduction operation that must
  // be completed before the use" — so the combine fires immediately after
  // the statement computing the partial sums. The prototype does no
  // candidate marking for reductions; it only combines ones placed at the
  // same point.
  if (E.M.Kind == CommKind::Reduce) {
    E.EarliestSlot = E.LatestSlot = Ctx.G.slotAfter(E.UseStmt);
    E.CommLevel = static_cast<int>(Ctx.G.loopNestOf(E.UseStmt).size());
    CandOut.clear();
    CandOut.push_back(E.LatestSlot);
    if (Opts.DeferReductions && (Opts.Strat == Strategy::Global ||
                                 Opts.Strat == Strategy::Optimal))
      deferReduction(Ctx, E, CandOut);
    return;
  }

  if (Reference) {
    computeLatestReference(Ctx, E, Work);
    thread_local RefScratch SC;
    E.EarliestSlot = ReferenceEarliestWalk(Ctx, E, SC, Work).run();
  } else {
    computeLatest(Ctx, E, Work);
    E.EarliestSlot = computeEarliestSlot(Ctx, E, Work);
  }

  // Claim 4.5 guarantees Earliest dominates Latest; guard against analysis
  // imprecision by degrading to the single Latest slot.
  if (!Ctx.DT.slotDominates(E.EarliestSlot, E.LatestSlot)) {
    std::fprintf(stderr,
                 "EarliestLatest violation: stmt=%d array=%d early=(B%d,%d) "
                 "late=(B%d,%d) commlevel=%d\n",
                 E.UseStmt->id(), E.ArrayId, E.EarliestSlot.Node,
                 E.EarliestSlot.Index, E.LatestSlot.Node, E.LatestSlot.Index,
                 E.CommLevel);
    assert(false && "Earliest does not dominate Latest");
    E.EarliestSlot = E.LatestSlot;
  }
  markCandidates(Ctx, E, CandOut);
}

void gca::analyzeEntryPlacement(const AnalysisContext &Ctx, CommEntry &E,
                                const PlacementOptions &Opts,
                                std::vector<Slot> &CandOut, RangeWork &Work) {
  analyzeEntry(Ctx, E, Opts, CandOut, Work, /*Reference=*/false);
}

void gca::analyzeEntryPlacement(const AnalysisContext &Ctx, CommEntry &E,
                                const PlacementOptions &Opts,
                                std::vector<Slot> &CandOut) {
  RangeWork Work;
  analyzeEntry(Ctx, E, Opts, CandOut, Work, /*Reference=*/false);
}

void gca::analyzeEntryPlacementReference(const AnalysisContext &Ctx,
                                         CommEntry &E,
                                         const PlacementOptions &Opts,
                                         std::vector<Slot> &CandOut,
                                         RangeWork &Work) {
  analyzeEntry(Ctx, E, Opts, CandOut, Work, /*Reference=*/true);
}
