//===- core/Placement.cpp - Global communication placement ----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "core/Placement.h"

#include "core/Detect.h"
#include "core/EarliestLatest.h"
#include "support/Stats.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>

using namespace gca;

const char *gca::strategyName(Strategy S) {
  switch (S) {
  case Strategy::Orig:
    return "orig";
  case Strategy::Earliest:
    return "nored";
  case Strategy::Global:
    return "comb";
  case Strategy::Optimal:
    return "optimal";
  case Strategy::EarliestCombine:
    return "earlycomb";
  }
  return "?";
}

const char *gca::decisionKindName(DecisionKind K) {
  switch (K) {
  case DecisionKind::Detected:
    return "detected";
  case DecisionKind::RangeComputed:
    return "range-computed";
  case DecisionKind::SubsetSlotCleared:
    return "subset-slot-cleared";
  case DecisionKind::RedundancyEliminated:
    return "redundancy-eliminated";
  case DecisionKind::PartiallyReduced:
    return "partially-reduced";
  case DecisionKind::CombinedIntoGroup:
    return "combined-into-group";
  case DecisionKind::GroupPlaced:
    return "group-placed";
  case DecisionKind::LoweredAs:
    return "lowered-as";
  }
  return "?";
}

DecisionEvent DecisionEvent::detected(int Entry, CommKind K, int ArrayId,
                                      int Refs, int DiagId) {
  DecisionEvent E;
  E.Kind = DecisionKind::Detected;
  E.Comm = K;
  E.EntryId = Entry;
  E.Num[0] = ArrayId;
  E.Num[1] = Refs;
  E.Num[2] = DiagId;
  return E;
}

DecisionEvent DecisionEvent::rangeComputed(int Entry, Slot Earliest,
                                           Slot Latest, int Candidates,
                                           int Level) {
  DecisionEvent E;
  E.Kind = DecisionKind::RangeComputed;
  E.EntryId = Entry;
  E.Where = Earliest;
  E.Second = Latest;
  E.Num[0] = Candidates;
  E.Num[1] = Level;
  return E;
}

DecisionEvent DecisionEvent::subsetSlotCleared(Slot Cleared, Slot CoveredBy,
                                               int Affected) {
  DecisionEvent E;
  E.Kind = DecisionKind::SubsetSlotCleared;
  E.Where = Cleared;
  E.Second = CoveredBy;
  E.Num[0] = Affected;
  return E;
}

DecisionEvent DecisionEvent::redundancyEliminated(int Entry, int Subsumer,
                                                  Slot S, DecisionReason Why) {
  DecisionEvent E;
  E.Kind = DecisionKind::RedundancyEliminated;
  E.Reason = Why;
  E.EntryId = Entry;
  E.OtherId = Subsumer;
  E.Where = S;
  return E;
}

DecisionEvent DecisionEvent::partiallyReduced(int Entry, int Covering,
                                              Slot S) {
  DecisionEvent E;
  E.Kind = DecisionKind::PartiallyReduced;
  E.EntryId = Entry;
  E.OtherId = Covering;
  E.Where = S;
  return E;
}

DecisionEvent DecisionEvent::combinedIntoGroup(int Entry, int Group, Slot S,
                                               DecisionReason Why,
                                               int Members) {
  DecisionEvent E;
  E.Kind = DecisionKind::CombinedIntoGroup;
  E.Reason = Why;
  E.EntryId = Entry;
  E.OtherId = Group;
  E.Where = S;
  E.Num[0] = Members;
  return E;
}

DecisionEvent DecisionEvent::groupPlaced(int Group, Slot S, CommKind K,
                                         int Members, int Attached, int Data) {
  DecisionEvent E;
  E.Kind = DecisionKind::GroupPlaced;
  E.Comm = K;
  E.OtherId = Group;
  E.Where = S;
  E.Num[0] = Members;
  E.Num[1] = Attached;
  E.Num[2] = Data;
  return E;
}

DecisionEvent DecisionEvent::loweredAs(int Group, Slot S, const char *Op,
                                       const char *Algo, int Procs,
                                       int64_t Bytes, int Rounds, int Fused) {
  DecisionEvent E;
  E.Kind = DecisionKind::LoweredAs;
  E.OtherId = Group;
  E.Where = S;
  E.Op = Op;
  E.Algo = Algo;
  E.Num[0] = Procs;
  E.Num[1] = Rounds;
  E.Num[2] = Fused;
  E.Bytes = Bytes;
  return E;
}

/// "(B4,1)" rendering shared by decision details.
static std::string slotStr(const Slot &S) {
  if (!S.isValid())
    return "(-)";
  return strFormat("(B%d,%d)", S.Node, S.Index);
}

std::string gca::decisionDetail(const DecisionEvent &E, const Routine &R) {
  switch (E.Kind) {
  case DecisionKind::Detected: {
    std::string Out = strFormat("kind=%s array=%s refs=%d",
                                commKindName(E.Comm),
                                R.array(E.Num[0]).Name.c_str(), E.Num[1]);
    if (E.Num[2] >= 0)
      Out += strFormat(" diag=%d", E.Num[2]);
    return Out;
  }
  case DecisionKind::RangeComputed:
    return strFormat("earliest=%s latest=%s candidates=%d level=%d",
                     slotStr(E.Where).c_str(), slotStr(E.Second).c_str(),
                     E.Num[0], E.Num[1]);
  case DecisionKind::SubsetSlotCleared:
    return strFormat("covered by %s; %d entries affected",
                     slotStr(E.Second).c_str(), E.Num[0]);
  case DecisionKind::RedundancyEliminated:
    return E.Reason == DecisionReason::CoveredByDominating
               ? "covered by dominating communication"
               : "descriptor subsumed at common slot";
  case DecisionKind::PartiallyReduced:
    return "remainder-only send";
  case DecisionKind::CombinedIntoGroup:
    if (E.Reason == DecisionReason::JoinedGroup)
      return strFormat("members=%d", E.Num[0]);
    return E.Reason == DecisionReason::OpenedGroup ? "opened group"
                                                   : "attached via subsumer";
  case DecisionKind::GroupPlaced:
    return strFormat("kind=%s members=%d attached=%d data=%d",
                     commKindName(E.Comm), E.Num[0], E.Num[1], E.Num[2]);
  case DecisionKind::LoweredAs: {
    std::string Out = strFormat("%s/%s procs=%d bytes=%lld rounds=%d", E.Op,
                                E.Algo, E.Num[0],
                                static_cast<long long>(E.Bytes), E.Num[1]);
    if (E.Num[2] > 0)
      Out += strFormat(" fused=%d", E.Num[2]);
    return Out;
  }
  }
  return std::string();
}

std::string CommPlan::decisionsStr(const Routine &R) const {
  std::string Out;
  for (const DecisionEvent &E : Decisions) {
    Out += strFormat("  %-21s", decisionKindName(E.Kind));
    if (E.EntryId >= 0)
      Out += strFormat(" entry=%d", E.EntryId);
    if (E.OtherId >= 0)
      Out += strFormat(
          " %s=%d",
          E.Kind == DecisionKind::CombinedIntoGroup ||
                  E.Kind == DecisionKind::GroupPlaced ||
                  E.Kind == DecisionKind::LoweredAs
              ? "group"
              : "subsumer",
          E.OtherId);
    if (E.Where.isValid())
      Out += " @" + slotStr(E.Where);
    Out += ' ';
    Out += decisionDetail(E, R);
    Out += '\n';
  }
  return Out;
}

int CommStats::totalGroups() const {
  int N = 0;
  for (int K : NumGroups)
    N += K;
  return N;
}

std::string CommStats::str() const {
  return strFormat("NNC=%d SUM=%d BCAST=%d GEN=%d (entries=%d elim=%d)",
                   groups(CommKind::Shift), groups(CommKind::Reduce),
                   groups(CommKind::Bcast), groups(CommKind::General),
                   NumEntries, NumEliminated);
}

int64_t gca::estimatePerProcBytes(const AnalysisContext &Ctx, const Asd &A,
                                  int NumProcs) {
  const ArrayDecl &Decl = Ctx.R.array(A.ArrayId);
  int64_t Elems = A.D.numElems();
  if (Elems < 0)
    Elems = Decl.numElems(); // Unknown extent: assume the whole array.
  unsigned TRank = std::max(1u, A.M.Sig.rank());
  int ProcsPerDim =
      std::max(1, static_cast<int>(std::llround(
                      std::pow(static_cast<double>(NumProcs),
                               1.0 / static_cast<double>(TRank)))));
  switch (A.M.Kind) {
  case CommKind::Shift: {
    // Boundary slab: extent along the shifted dim becomes |offset|; the
    // remaining extents are divided among the processors of the other dims.
    std::vector<unsigned> Dims;
    for (unsigned D = 0, E = Decl.rank(); D != E; ++D)
      if (Decl.Dist[D] != DistKind::Star)
        Dims.push_back(D);
    int64_t Slab = Elems;
    for (unsigned K = 0; K != A.M.Offsets.size(); ++K) {
      if (A.M.Offsets[K] == 0)
        continue;
      int64_t Count = K < Dims.size() ? A.D.dim(Dims[K]).count() : -1;
      if (Count > 0)
        Slab = Slab / Count * std::llabs(A.M.Offsets[K]);
    }
    int OtherProcs = 1;
    for (unsigned K = 1; K < TRank; ++K)
      OtherProcs *= ProcsPerDim;
    return Slab * Decl.ElemBytes / std::max(1, OtherProcs);
  }
  case CommKind::Reduce:
    return Decl.ElemBytes; // One partial result per reduction.
  case CommKind::Bcast: {
    std::vector<unsigned> Dims;
    for (unsigned D = 0, E = Decl.rank(); D != E; ++D)
      if (Decl.Dist[D] != DistKind::Star)
        Dims.push_back(D);
    int64_t Count = A.M.BcastDim < static_cast<int>(Dims.size())
                        ? A.D.dim(Dims[A.M.BcastDim]).count()
                        : 1;
    if (Count > 0)
      Elems /= Count;
    return Elems * Decl.ElemBytes / std::max(1, ProcsPerDim);
  }
  case CommKind::General:
    return Elems * Decl.ElemBytes / std::max(1, NumProcs);
  case CommKind::Local:
    return 0;
  }
  return 0;
}

namespace {

/// Shared machinery for the strategy drivers.
class Placer {
public:
  Placer(const AnalysisContext &Ctx, const PlacementOptions &Opts)
      : Ctx(Ctx), Opts(Opts) {}

  CommPlan run() {
    DomQueriesStart = Ctx.DT.queryCount();
    CommPlan Plan;
    Plan.Strat = Opts.Strat;
    Plan.Mem = std::make_shared<Arena>();
    Plan.Entries = detectCommunication(Ctx, Opts, &Plan.Decisions);
    AsdIdx.reset(static_cast<int>(Plan.Entries.size()));
    computeClasses(Plan);
    analyzeEntries(Plan);

    switch (Opts.Strat) {
    case Strategy::Orig:
      runOrig(Plan);
      break;
    case Strategy::Earliest:
      runEarliest(Plan);
      break;
    case Strategy::Global:
      runGlobal(Plan);
      break;
    case Strategy::Optimal:
      runOptimal(Plan);
      break;
    case Strategy::EarliestCombine:
      runEarliest(Plan);
      break;
    }

    finalizeGroups(Plan);
    computeStats(Plan);
    return Plan;
  }

  /// origGroupCount: the groups runOrig would form, from a copy of
  /// \p Placed's entries. Only buildGroups runs: Orig pins every group
  /// where it opened, so finalizeGroups would not move or merge any.
  int origGroups(const CommPlan &Placed) {
    CommPlan Plan;
    Plan.Entries = Placed.Entries;
    for (CommEntry &E : Plan.Entries) {
      E.Eliminated = false;
      E.Chosen = E.LatestSlot;
    }
    AsdIdx.reset(static_cast<int>(Plan.Entries.size()));
    computeClasses(Plan);
    buildGroups(Plan);
    return static_cast<int>(Plan.Groups.size());
  }

private:
  /// Per-entry Earliest/Latest analysis (Sections 4.2-4.4). Each entry's
  /// candidate list is copied into the plan's arena twice: Candidates
  /// shrinks during elimination while OriginalCandidates may later be
  /// pinned, so they diverge.
  void analyzeEntries(CommPlan &Plan) {
    std::vector<Slot> Cands;
    for (CommEntry &E : Plan.Entries) {
      analyzeEntryPlacement(Ctx, E, Opts, Cands, Range);
      auto Len = static_cast<uint32_t>(Cands.size());
      Slot *Mem = Plan.Mem->allocArray<Slot>(2 * static_cast<size_t>(Len));
      std::copy(Cands.begin(), Cands.end(), Mem);
      std::copy(Cands.begin(), Cands.end(), Mem + Len);
      E.Candidates = SlotSpan(Mem, Len);
      E.OriginalCandidates = SlotSpan(Mem + Len, Len);
      Plan.Decisions.push_back(DecisionEvent::rangeComputed(
          E.Id, E.EarliestSlot, E.LatestSlot, static_cast<int>(Len),
          E.CommLevel));
    }
  }

  // --- Helpers ------------------------------------------------------------

  const Asd &asdAt(const CommEntry &E, int Level) {
    int32_t &Idx = AsdIdx.at(E.Id, Level);
    if (Idx < 0) {
      Idx = static_cast<int32_t>(AsdPool.size());
      AsdPool.push_back(asdOfEntry(Ctx, E, Level));
    }
    return AsdPool[Idx];
  }

  int slotLevel(const Slot &S) const { return Ctx.slotLevel(S); }

  int slotIdOf(const Slot &S) const { return Ctx.G.slotId(S); }

  /// Total order on slots by dominance depth (later slots order higher).
  bool slotLater(const Slot &A, const Slot &B) const {
    if (A.Node != B.Node)
      return Ctx.DT.depth(A.Node) > Ctx.DT.depth(B.Node);
    return A.Index > B.Index;
  }

  /// Reusable epoch-stamped integer table over dense slot ids: reset() is
  /// O(1), so the per-call cost of a mark/count sweep is the touched slots,
  /// not numSlots().
  class DenseTable {
  public:
    void ensure(int N) {
      if (static_cast<int>(Epoch.size()) < N) {
        Epoch.resize(N, 0);
        Val.resize(N, 0);
      }
    }
    void reset() { ++Cur; }
    int get(int I) const { return Epoch[I] == Cur ? Val[I] : 0; }
    void set(int I, int V) {
      Epoch[I] = Cur;
      Val[I] = V;
    }
    void inc(int I) { set(I, get(I) + 1); }

  private:
    std::vector<int> Epoch, Val;
    int Cur = 0;
  };

  /// A pass-start snapshot of which entries list each slot, in flat arrays
  /// reused across passes: the used slot ids ascending (the iteration order
  /// of a std::map<Slot> scan), each one's members in ascending entry id.
  struct SlotMemberTable {
    std::vector<int> Slots;   ///< Used slot ids, ascending.
    std::vector<int> Off;     ///< Members of Slots[U]: [Off[U], Off[U+1]).
    std::vector<int> Members; ///< Entry ids.
    std::vector<int> Fill;    ///< Build cursor per used slot.
    DenseTable Index;         ///< Slot id -> U + 1 (0: unused).

    std::span<const int> membersAt(int U) const {
      return {Members.data() + Off[U], Members.data() + Off[U + 1]};
    }
  };

  /// Fills SM from the candidates of every entry (of the uneliminated ones
  /// when \p LiveOnly) by a counting sort over the used slots.
  void buildSlotMembers(const CommPlan &Plan, bool LiveOnly) {
    SM.Index.ensure(Ctx.G.numSlots());
    SM.Index.reset();
    SM.Slots.clear();
    auto forEachListing = [&](auto &&F) {
      for (const CommEntry &E : Plan.Entries)
        if (!LiveOnly || !E.Eliminated)
          for (const Slot &S : E.Candidates)
            F(E.Id, slotIdOf(S));
    };
    forEachListing([&](int, int SId) {
      if (!SM.Index.get(SId)) {
        SM.Index.set(SId, 1);
        SM.Slots.push_back(SId);
      }
    });
    std::sort(SM.Slots.begin(), SM.Slots.end());
    const int NU = static_cast<int>(SM.Slots.size());
    for (int U = 0; U != NU; ++U)
      SM.Index.set(SM.Slots[U], U + 1);
    SM.Off.assign(NU + 1, 0);
    forEachListing([&](int, int SId) { ++SM.Off[SM.Index.get(SId)]; });
    for (int U = 0; U != NU; ++U)
      SM.Off[U + 1] += SM.Off[U];
    SM.Members.resize(SM.Off[NU]);
    SM.Fill.assign(SM.Off.begin(), SM.Off.end() - 1);
    forEachListing([&](int Id, int SId) {
      SM.Members[SM.Fill[SM.Index.get(SId) - 1]++] = Id;
    });
  }

  /// Dense pattern-class ids. CompatClass equates entries whose mappings
  /// are mutually combinable: away from General, Mapping::compatibleWith is
  /// an equivalence relation keyed on (kind, template signature, and the
  /// kind's direction data — shift offset signs, reduction dims, broadcast
  /// source); General never matches anything (itself included) and gets a
  /// unique class. SubsumeClass additionally splits by array, since
  /// Asd::subsumedBy requires ArrayId equality and Mapping::subsumedBy
  /// implies compatibility. Bucketing the pairwise scans by these ids skips
  /// exactly the pairs the full scans reject on the cheap kind/signature
  /// checks, so it cannot change any decision.
  void computeClasses(const CommPlan &Plan) {
    // Integer key tuple: kind, signature rank, each dim's (extent,
    // distribution), then the kind's direction data. Equal tuples are equal
    // classes; ids are handed out in first-seen order.
    std::map<std::vector<int64_t>, int> CompatIds;
    std::map<std::pair<int, int>, int> SubsumeIds;
    std::vector<int64_t> Key;
    int NumCompat = 0;
    CompatClass.resize(Plan.Entries.size());
    SubsumeClass.resize(Plan.Entries.size());
    for (const CommEntry &E : Plan.Entries) {
      int Compat;
      if (E.M.Kind == CommKind::General) {
        Compat = NumCompat++; // Matches nothing, itself included.
      } else {
        Key.assign({static_cast<int64_t>(E.M.Kind),
                    static_cast<int64_t>(E.M.Sig.Dims.size())});
        for (const auto &[Ext, Dist] : E.M.Sig.Dims) {
          Key.push_back(Ext);
          Key.push_back(static_cast<int64_t>(Dist));
        }
        switch (E.M.Kind) {
        case CommKind::Shift:
          for (int64_t O : E.M.Offsets)
            Key.push_back(O > 0 ? 1 : O < 0 ? -1 : 0);
          break;
        case CommKind::Reduce:
          for (uint8_t D : E.M.ReduceDims)
            Key.push_back(D ? 1 : 0);
          break;
        case CommKind::Bcast:
          Key.push_back(E.M.BcastDim);
          Key.push_back(E.M.BcastPos);
          break;
        default:
          break;
        }
        auto It = CompatIds.find(Key);
        if (It == CompatIds.end())
          It = CompatIds.emplace(Key, NumCompat++).first;
        Compat = It->second;
      }
      CompatClass[E.Id] = Compat;
      auto It2 = SubsumeIds.emplace(std::make_pair(E.ArrayId, Compat),
                                    static_cast<int>(SubsumeIds.size()));
      SubsumeClass[E.Id] = It2.first->second;
    }
    NumCompatClasses = NumCompat;
  }

  /// The latest slot in the (sorted ascending) intersection of candidate
  /// lists; invalid slot when the intersection is empty. A counting merge
  /// over dense slot ids: a slot of the first list is common iff every
  /// other list bumped its count. The first list is scanned in its own
  /// order with the same strict slotLater update as the original nested
  /// scan, so ties resolve to the same slot.
  Slot latestCommon(const std::vector<const SlotSpan *> &Lists) {
    if (Lists.empty())
      return Slot();
    SlotMarks.ensure(Ctx.G.numSlots());
    SlotMarks.reset();
    for (size_t I = 1; I < Lists.size(); ++I) {
      ++SlotSetMerges;
      for (const Slot &S : *Lists[I])
        SlotMarks.inc(slotIdOf(S));
    }
    int Needed = static_cast<int>(Lists.size()) - 1;
    Slot Best;
    for (const Slot &S : *Lists[0])
      if (SlotMarks.get(slotIdOf(S)) == Needed &&
          (!Best.isValid() || slotLater(S, Best)))
        Best = S;
    return Best;
  }

  /// Section shapes (per-dim counts, singleton dims squeezed) for the
  /// cross-array combining rule: the combined descriptor must refer to
  /// "identical sections of different arrays" (Section 4.7).
  static std::vector<int64_t> squeezedShape(const RegSection &D) {
    std::vector<int64_t> Out;
    for (unsigned I = 0, E = D.rank(); I != E; ++I) {
      int64_t C = D.dim(I).count();
      if (C != 1)
        Out.push_back(C);
    }
    return Out;
  }

  /// Combining admission test of Section 4.7 for adding entry \p E to a
  /// group currently holding \p Members at slot \p S. Only the global
  /// algorithm may combine across arrays; the orig/nored baselines perform
  /// same-array coalescing only.
  bool canJoinGroup(const CommGroup &G, const std::vector<CommEntry> &Entries,
                    const CommEntry &E, const Slot &S) {
    int Level = slotLevel(S);
    if (!G.M.compatibleWith(E.M))
      return false;
    bool CrossCombine = Opts.Strat == Strategy::Global ||
                        Opts.Strat == Strategy::Optimal ||
                        Opts.Strat == Strategy::EarliestCombine;
    if (!CrossCombine) {
      // The baseline strategies only coalesce same-array data and never
      // combine reductions (combining is the new algorithm's contribution).
      if (E.M.Kind == CommKind::Reduce)
        return false;
      for (int M : G.Members)
        if (Entries[M].ArrayId != E.ArrayId)
          return false;
    }
    if (E.M.Kind == CommKind::Reduce)
      return true; // Combined payload is one value per reduction.

    const Asd &AE = asdAt(E, Level);
    int64_t Bytes = estimatePerProcBytes(Ctx, AE, Opts.NumProcs);
    for (int M : G.Members)
      Bytes += estimatePerProcBytes(Ctx, asdAt(Entries[M], Level),
                                    Opts.NumProcs);
    if (Bytes > Opts.CombineThresholdBytes)
      return false;

    for (int M : G.Members) {
      const Asd &AM = asdAt(Entries[M], Level);
      // Both same-array and cross-array combining use one union descriptor
      // (for different arrays it "refers to identical sections of different
      // arrays"); its size may exceed the combined size only by a small
      // constant (Section 4.7).
      if (AM.D.rank() == AE.D.rank()) {
        RegSection U;
        int64_t UnionElems, SumElems;
        if (!AM.D.unionApprox(AE.D, U, UnionElems, SumElems))
          return false;
        if (UnionElems > 0 && SumElems > 0 &&
            static_cast<double>(UnionElems) >
                Opts.MaxUnionGrowth * static_cast<double>(SumElems))
          return false;
      } else if (squeezedShape(AM.D) != squeezedShape(AE.D)) {
        // Different ranks (e.g. a 3-d plane against a 2-d array): require
        // identical squeezed shapes.
        return false;
      }
    }
    return true;
  }

  /// Buckets entries by chosen slot and forms compatibility groups.
  void buildGroups(CommPlan &Plan) {
    std::map<Slot, std::vector<int>> BySlot;
    for (const CommEntry &E : Plan.Entries)
      if (!E.Eliminated && E.Chosen.isValid())
        BySlot[E.Chosen].push_back(E.Id);

    for (auto &[S, Ids] : BySlot) {
      // Groups opened at this slot, indexed by the opener's compatibility
      // class. canJoinGroup rejects any cross-class entry at its very first
      // check (G.M stays the opener's mapping throughout buildGroups), so
      // only same-class groups need scanning; within a class the open order
      // is preserved, so the first accepting group is unchanged.
      std::map<int, std::vector<int>> GroupsHere;
      for (int Id : Ids) {
        CommEntry &E = Plan.Entries[Id];
        bool Joined = false;
        for (int GId : GroupsHere[CompatClass[Id]]) {
          CommGroup &G = Plan.Groups[GId];
          ++PairCompares;
          if (canJoinGroup(G, Plan.Entries, E, S)) {
            G.Members.push_back(Id);
            E.GroupId = GId;
            Plan.Decisions.push_back(DecisionEvent::combinedIntoGroup(
                Id, GId, S, DecisionReason::JoinedGroup,
                static_cast<int>(G.Members.size())));
            Joined = true;
            break;
          }
        }
        if (Joined)
          continue;
        CommGroup G;
        G.Id = static_cast<int>(Plan.Groups.size());
        G.Placement = S;
        G.Kind = E.M.Kind;
        G.M = E.M;
        G.Members = {Id};
        E.GroupId = G.Id;
        Plan.Decisions.push_back(DecisionEvent::combinedIntoGroup(
            Id, G.Id, S, DecisionReason::OpenedGroup));
        Plan.Groups.push_back(std::move(G));
        GroupsHere[CompatClass[Id]].push_back(Plan.Groups.back().Id);
      }
    }

    // Attach eliminated entries to their subsumer's group.
    for (CommEntry &E : Plan.Entries) {
      if (!E.Eliminated)
        continue;
      int Leader = E.SubsumedBy;
      std::set<int> Seen;
      while (Leader >= 0 && Plan.Entries[Leader].Eliminated &&
             Seen.insert(Leader).second)
        Leader = Plan.Entries[Leader].SubsumedBy;
      if (Leader >= 0 && Plan.Entries[Leader].GroupId >= 0) {
        int GId = Plan.Entries[Leader].GroupId;
        Plan.Groups[GId].Attached.push_back(E.Id);
        E.GroupId = GId;
        Plan.Decisions.push_back(DecisionEvent::combinedIntoGroup(
            E.Id, GId, Plan.Groups[GId].Placement,
            DecisionReason::AttachedViaSubsumer));
      }
    }
  }

  /// Final placement: each group moves to the latest position common to the
  /// candidate ranges of its members and attached entries (Section 4.7);
  /// groups that land on the same point and are mutually combinable merge
  /// (the motion often reunites entries the pruned-slot greedy separated);
  /// then each group's widest mapping and data descriptors are computed.
  void finalizeGroups(CommPlan &Plan) {
    for (CommGroup &G : Plan.Groups) {
      std::vector<const SlotSpan *> Lists;
      for (int Id : G.Members)
        Lists.push_back(&Plan.Entries[Id].OriginalCandidates);
      for (int Id : G.Attached)
        Lists.push_back(&Plan.Entries[Id].OriginalCandidates);
      Slot Best = latestCommon(Lists);
      if (Best.isValid())
        G.Placement = Best;
    }

    mergeCoplacedGroups(Plan);

    for (CommGroup &G : Plan.Groups) {
      int Level = slotLevel(G.Placement);
      // Widest mapping across members and attached entries.
      auto widen = [&](const CommEntry &E) {
        for (unsigned K = 0; K != G.M.Offsets.size(); ++K)
          if (std::llabs(E.M.Offsets[K]) > std::llabs(G.M.Offsets[K]))
            G.M.Offsets[K] = E.M.Offsets[K];
      };
      for (int Id : G.Members)
        widen(Plan.Entries[Id]);
      for (int Id : G.Attached)
        widen(Plan.Entries[Id]);

      // Data descriptors: union same-array sections where representable.
      G.Data.clear();
      G.DataAug.clear();
      auto addAsd = [&](const CommEntry &E) {
        Asd A = asdAt(E, Level);
        if (E.ReducedD)
          A.D = *E.ReducedD; // Partial redundancy: remainder only.
        for (size_t I = 0; I != G.Data.size(); ++I) {
          Asd &Existing = G.Data[I];
          if (Existing.ArrayId != A.ArrayId)
            continue;
          RegSection U;
          int64_t UE, SE;
          if (Existing.D.unionApprox(A.D, U, UE, SE)) {
            Existing.D = std::move(U);
            Existing.M = G.M;
            for (unsigned D = 0; D != E.Augment.size(); ++D) {
              G.DataAug[I][D][0] =
                  std::max(G.DataAug[I][D][0], E.Augment[D][0]);
              G.DataAug[I][D][1] =
                  std::max(G.DataAug[I][D][1], E.Augment[D][1]);
            }
            return;
          }
        }
        A.M = G.M;
        G.Data.push_back(std::move(A));
        G.DataAug.push_back(E.Augment);
      };
      for (int Id : G.Members)
        addAsd(Plan.Entries[Id]);
      // Attached entries' data must be covered by the group descriptors;
      // widen the union to include them.
      for (int Id : G.Attached)
        addAsd(Plan.Entries[Id]);
      Plan.Decisions.push_back(DecisionEvent::groupPlaced(
          G.Id, G.Placement, G.Kind, static_cast<int>(G.Members.size()),
          static_cast<int>(G.Attached.size()),
          static_cast<int>(G.Data.size())));
    }
  }

  /// Merges groups that finalized onto the same slot when every member of
  /// one can join the other (same-kind, compatible mapping, size rules).
  void mergeCoplacedGroups(CommPlan &Plan) {
    if (Opts.Strat != Strategy::Global && Opts.Strat != Strategy::Optimal)
      return;
    // Merge partners per (final slot, compatibility class): a merge needs
    // equal placements and member-wise compatible mappings, and both are
    // invariant under merging (offset widening keeps the sign pattern that
    // keys the class), so only same-bucket groups can ever pass the checks.
    // Buckets list group ids ascending — the original inner-scan order.
    std::map<std::pair<int, int>, std::vector<int>> Partners;
    for (const CommGroup &G : Plan.Groups)
      Partners[{slotIdOf(G.Placement), CompatClass[G.Members[0]]}].push_back(
          G.Id);
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (CommGroup &G1 : Plan.Groups) {
        if (G1.Members.empty())
          continue;
        for (int G2Id : Partners[{slotIdOf(G1.Placement),
                                  CompatClass[G1.Members[0]]}]) {
          CommGroup &G2 = Plan.Groups[G2Id];
          if (G2.Id == G1.Id || G2.Members.empty())
            continue;
          if (!(G1.Placement == G2.Placement) || G1.Kind != G2.Kind)
            continue;
          ++PairCompares;
          bool AllJoin = true;
          for (int Id : G2.Members)
            AllJoin &= canJoinGroup(G1, Plan.Entries, Plan.Entries[Id],
                                    G1.Placement);
          if (!AllJoin)
            continue;
          for (int Id : G2.Members) {
            G1.Members.push_back(Id);
            Plan.Entries[Id].GroupId = G1.Id;
          }
          for (int Id : G2.Attached) {
            G1.Attached.push_back(Id);
            Plan.Entries[Id].GroupId = G1.Id;
          }
          for (unsigned K = 0; K != G1.M.Offsets.size(); ++K)
            if (std::llabs(G2.M.Offsets[K]) > std::llabs(G1.M.Offsets[K]))
              G1.M.Offsets[K] = G2.M.Offsets[K];
          G2.Members.clear();
          G2.Attached.clear();
          Progress = true;
        }
      }
    }
    // Compact: drop emptied groups and renumber.
    std::vector<CommGroup> Kept;
    for (CommGroup &G : Plan.Groups) {
      if (G.Members.empty())
        continue;
      int NewId = static_cast<int>(Kept.size());
      for (int Id : G.Members)
        Plan.Entries[Id].GroupId = NewId;
      for (int Id : G.Attached)
        Plan.Entries[Id].GroupId = NewId;
      G.Id = NewId;
      Kept.push_back(std::move(G));
    }
    Plan.Groups = std::move(Kept);
  }

  void computeStats(CommPlan &Plan) {
    Plan.Stats = CommStats();
    Plan.Stats.NumEntries = static_cast<int>(Plan.Entries.size());
    for (const CommEntry &E : Plan.Entries)
      Plan.Stats.NumEliminated += E.Eliminated;
    for (const CommGroup &G : Plan.Groups)
      ++Plan.Stats.NumGroups[static_cast<int>(G.Kind)];
    if (StatsRegistry *S = Opts.Stats) {
      S->add("placement.entries-detected", Plan.Stats.NumEntries);
      S->add("placement.redundancy-eliminated", Plan.Stats.NumEliminated);
      S->add("placement.groups", Plan.Stats.totalGroups());
      int64_t Combined = 0;
      for (const CommGroup &G : Plan.Groups)
        Combined += G.Members.size() > 1;
      S->add("placement.combined-groups", Combined);
      S->add("dom.queries",
             static_cast<int64_t>(Ctx.DT.queryCount() - DomQueriesStart));
      S->add("placement.pair-compares", PairCompares);
      S->add("placement.range-solves", Range.Solves);
      S->add("placement.range-steps", Range.Steps);
      S->add("placement.slotset-merges", SlotSetMerges);
    }
  }

  // --- Strategy: orig (message vectorization only) -------------------------

  void runOrig(CommPlan &Plan) {
    for (CommEntry &E : Plan.Entries)
      E.Chosen = E.LatestSlot;
    buildGroups(Plan);
    // No global motion: groups stay at the vectorized position.
    for (CommGroup &G : Plan.Groups)
      pinGroup(Plan, G);
  }

  /// Prevents finalizeGroups from moving this group: collapse the members'
  /// original candidate lists to the chosen slot.
  void pinGroup(CommPlan &Plan, CommGroup &G) {
    for (int Id : G.Members)
      Plan.Entries[Id].OriginalCandidates.assignSingle(G.Placement);
  }

  // --- Strategy: nored (earliest placement + redundancy elimination) -------

  void runEarliest(CommPlan &Plan) {
    for (CommEntry &E : Plan.Entries)
      E.Chosen = E.EarliestSlot;
    // Subsumer candidates per subsume class (ascending entry id, the
    // original scan order): descriptor coverage requires same array and
    // mapping class, so entries of other classes can never subsume.
    std::map<int, std::vector<int>> ClassBuckets;
    for (const CommEntry &E : Plan.Entries)
      ClassBuckets[SubsumeClass[E.Id]].push_back(E.Id);
    // Classic redundancy elimination: an entry whose descriptor is covered
    // by one placed at a dominating (or equal, lower-id) slot is dropped.
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (CommEntry &C1 : Plan.Entries) {
        if (C1.Eliminated)
          continue;
        for (int I2 : ClassBuckets[SubsumeClass[C1.Id]]) {
          CommEntry &C2 = Plan.Entries[I2];
          if (C2.Id == C1.Id || C2.Eliminated)
            continue;
          ++PairCompares;
          if (!Ctx.DT.slotDominates(C2.Chosen, C1.Chosen))
            continue;
          // Availability kill: C2's data must still be fresh at C1's use,
          // i.e. C2 fires after the last definition interfering with C1's
          // data — which is exactly C1's Earliest point.
          if (!Ctx.DT.slotDominates(C1.EarliestSlot, C2.Chosen))
            continue;
          const Asd &A1 = asdAt(C1, slotLevel(C1.Chosen));
          const Asd &A2 = asdAt(C2, slotLevel(C2.Chosen));
          if (!A1.subsumedBy(A2))
            continue;
          // Symmetric pairs (equal descriptors at the same slot): keep the
          // lower id.
          if (C1.Chosen == C2.Chosen && A2.subsumedBy(A1) && C2.Id > C1.Id)
            continue;
          C1.Eliminated = true;
          C1.SubsumedBy = C2.Id;
          Plan.Decisions.push_back(DecisionEvent::redundancyEliminated(
              C1.Id, C2.Id, C1.Chosen, DecisionReason::CoveredByDominating));
          Progress = true;
          break;
        }
      }
    }
    // Partial redundancy ([14]): an entry whose descriptor is only
    // partially covered by an earlier dominating communication sends the
    // remainder. (The global algorithm instead eliminates such entries
    // outright by moving them later; Section 4.6.)
    if (Opts.PartialRedundancy) {
      // Definitions that could invalidate delivered data, with their
      // (fully expanded) write sections.
      std::vector<std::pair<const AssignStmt *, RegSection>> Defs;
      Ctx.R.forEachStmt([&](Stmt *St) {
        auto *A = dyn_cast<AssignStmt>(St);
        if (A && !A->lhsIsScalar())
          Defs.emplace_back(A, Ctx.sectionOfRef(A->lhs(), 0));
      });
      for (CommEntry &C2 : Plan.Entries) {
        if (C2.Eliminated || C2.M.Kind == CommKind::Reduce)
          continue;
        // Covering entries must share C2's array and mapping class (the
        // scan checks exactly that below), so only the class bucket can
        // qualify.
        for (int I1 : ClassBuckets[SubsumeClass[C2.Id]]) {
          CommEntry &C1 = Plan.Entries[I1];
          if (C1.Id == C2.Id || C1.Eliminated)
            continue;
          ++PairCompares;
          if (!Ctx.DT.slotDominates(C1.Chosen, C2.Chosen))
            continue;
          const Asd &A1 = asdAt(C1, slotLevel(C1.Chosen));
          const Asd &A2 = asdAt(C2, slotLevel(C2.Chosen));
          if (A1.ArrayId != A2.ArrayId || !A2.M.subsumedBy(A1.M))
            continue;
          // Freshness: no definition executing after C1's communication may
          // touch the data C1 delivered before C2's use. Conservatively,
          // any definition not provably *before* C1's communication (its
          // after-point dominating C1's slot) is suspect — this covers
          // loop-carried kills and defs inside branches.
          bool Fresh = true;
          // A definition is provably before slot P when its after-point
          // dominates P, or when the postexit of one of its enclosing loops
          // does (the zero-trip edge keeps loop bodies from dominating
          // anything after the loop).
          auto executesBefore = [&](const AssignStmt *D, const Slot &P) {
            if (Ctx.DT.slotDominates(Ctx.G.slotAfter(D), P))
              return true;
            for (int L : Ctx.G.loopNestOf(D)) {
              Slot Post{Ctx.G.loop(L).Postexit, 0};
              if (Ctx.DT.slotDominates(Post, P))
                return true;
            }
            return false;
          };
          for (const auto &[D, Sec] : Defs) {
            if (D->lhs().ArrayId != A1.ArrayId)
              continue;
            if (executesBefore(D, C1.Chosen))
              continue; // Strictly before the covering communication.
            if (Sec.mayIntersect(A1.D)) {
              Fresh = false;
              break;
            }
          }
          if (!Fresh)
            continue;
          const RegSection &Cur = C2.ReducedD ? *C2.ReducedD : A2.D;
          RegSection Rem;
          if (Cur.difference(A1.D, Rem)) {
            C2.ReducedD = std::move(Rem);
            Plan.Decisions.push_back(
                DecisionEvent::partiallyReduced(C2.Id, C1.Id, C2.Chosen));
          }
        }
      }
    }
    buildGroups(Plan);
    for (CommGroup &G : Plan.Groups)
      pinGroup(Plan, G);
  }

  // --- Strategy: comb (the paper's global algorithm) ------------------------

  void subsetElimination(CommPlan &Plan) {
    // CommSet(S1) subset-of CommSet(S2) -> empty CommSet(S1) (Section 4.5).
    //
    // Indexed form of the quadratic slot-pair scan. Per pass, each slot's
    // member set and each entry's candidate set are snapshotted as sorted
    // dense ids. A slot S2 can cover S1 only if every member of S1 still
    // listed S2 at pass start — i.e. S2 lies in the intersection of the
    // members' snapshot candidate lists — so instead of testing S1 against
    // every other slot, we enumerate that intersection in ascending slot-id
    // order (the iteration order of the original std::map scan) and apply
    // the original size/equality/tie checks. A cleared slot's member set is
    // treated as empty for the rest of the pass, exactly as the original's
    // in-place Set1.clear() did; per-entry candidate removals never feed
    // back into a pass in either form, because the scan works off the
    // snapshot.
    int64_t SlotsCleared = 0;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      // Pass-start snapshot: per-entry sorted candidate ids (CandOff/CandIds
      // slices) and per-slot member lists (ascending entry id).
      const int N = static_cast<int>(Plan.Entries.size());
      CandOff.assign(N + 1, 0);
      CandIds.clear();
      for (const CommEntry &E : Plan.Entries) {
        for (const Slot &S : E.Candidates)
          CandIds.push_back(slotIdOf(S));
        CandOff[E.Id + 1] = static_cast<int>(CandIds.size());
        std::sort(CandIds.begin() + CandOff[E.Id], CandIds.end());
      }
      auto candsOf = [&](int Id) {
        return std::span<const int>(CandIds.data() + CandOff[Id],
                                    CandIds.data() + CandOff[Id + 1]);
      };
      buildSlotMembers(Plan, /*LiveOnly=*/false);
      Cleared.assign(SM.Slots.size(), 0);

      for (int U1 = 0, NU = static_cast<int>(SM.Slots.size()); U1 != NU;
           ++U1) {
        if (Cleared[U1])
          continue;
        int S1Id = SM.Slots[U1];
        std::span<const int> Set1 = SM.membersAt(U1);
        Slot S1 = Ctx.G.slotOfId(S1Id);
        // Enumerate candidate cover slots: the intersection of the members'
        // snapshot candidate lists, via the smallest list + binary probes.
        std::span<const int> Smallest = candsOf(Set1[0]);
        for (int Id : Set1)
          if (candsOf(Id).size() < Smallest.size())
            Smallest = candsOf(Id);
        for (int S2Id : Smallest) {
          if (S2Id == S1Id)
            continue;
          int U2 = SM.Index.get(S2Id) - 1;
          if (Cleared[U2])
            continue;
          size_t Size2 = SM.membersAt(U2).size();
          if (Set1.size() > Size2)
            continue;
          ++PairCompares;
          bool Subset = true;
          for (int Id : Set1) {
            ++SlotSetMerges;
            if (!std::binary_search(candsOf(Id).begin(), candsOf(Id).end(),
                                    S2Id)) {
              Subset = false;
              break;
            }
          }
          if (!Subset)
            continue;
          Slot S2 = Ctx.G.slotOfId(S2Id);
          // Equal sets: empty the earlier slot (the final latest-common
          // step recovers any flexibility given up here).
          if (Set1.size() == Size2 && !slotLater(S2, S1))
            continue;
          for (int Id : Set1)
            Plan.Entries[Id].Candidates.removeValue(S1);
          Plan.Decisions.push_back(DecisionEvent::subsetSlotCleared(
              S1, S2, static_cast<int>(Set1.size())));
          Cleared[U1] = 1;
          ++SlotsCleared;
          Progress = true;
          break;
        }
      }
    }
    if (Opts.Stats && SlotsCleared)
      Opts.Stats->add("placement.subset-eliminated", SlotsCleared);
  }

  void redundancyElimination(CommPlan &Plan) {
    // Figure 9(f), with the dominance-ordered disabling of the subsumed
    // entry's candidates. The subsumer scan per (slot, entry) is bucketed
    // by SubsumeClass: Asd::subsumedBy requires same array, kind,
    // signature, and direction data, so entries of other classes can never
    // subsume and skipping them changes nothing.
    //
    // StandsFor[E] lists the entries E transitively stands in for: its
    // victims and theirs. A subsumer must be placeable inside every one of
    // their ranges, not only its direct victim's.
    std::vector<std::vector<int>> StandsFor(Plan.Entries.size());
    bool Progress = true;
    while (Progress) {
      Progress = false;
      buildSlotMembers(Plan, /*LiveOnly=*/true);
      for (int U = 0, NU = static_cast<int>(SM.Slots.size()); U != NU; ++U) {
        Slot S = Ctx.G.slotOfId(SM.Slots[U]);
        int Level = slotLevel(S);
        std::span<const int> Ids = SM.membersAt(U);
        // Class index of this slot's members: a stable sort by class keeps
        // entry order within a bucket ascending, so the first accepted
        // subsumer is unchanged.
        auto ClassLess = [&](int A, int B) {
          return SubsumeClass[A] < SubsumeClass[B];
        };
        ByClass.assign(Ids.begin(), Ids.end());
        std::stable_sort(ByClass.begin(), ByClass.end(), ClassLess);
        for (int I1 : Ids) {
          CommEntry &C1 = Plan.Entries[I1];
          if (C1.Eliminated || C1.Candidates.empty())
            continue;
          auto [Lo, Hi] =
              std::equal_range(ByClass.begin(), ByClass.end(), I1, ClassLess);
          for (int I2 : std::span<const int>(Lo, Hi)) {
            if (I1 == I2)
              continue;
            CommEntry &C2 = Plan.Entries[I2];
            if (C2.Eliminated)
              continue;
            ++PairCompares;
            const Asd &A1 = asdAt(C1, Level);
            const Asd &A2 = asdAt(C2, Level);
            if (!A1.subsumedBy(A2))
              continue;
            // Equal descriptors: deterministic victim (higher id).
            if (A2.subsumedBy(A1) && I1 < I2)
              continue;
            // Never let an entry subsume its own (transitive) subsumer.
            if (isTransitiveSubsumer(Plan, I1, I2))
              continue;
            // Disable C1 at S and every slot S dominates.
            size_t BeforeSize = C1.Candidates.size();
            SlotSpan &Cand = C1.Candidates;
            Slot SCopy = S;
            Cand.removeIf([&](const Slot &X) {
              return Ctx.DT.slotDominates(SCopy, X);
            });
            if (Cand.size() != BeforeSize)
              Progress = true;
            if (Cand.empty()) {
              C1.Eliminated = true;
              C1.SubsumedBy = I2;
              Plan.Decisions.push_back(DecisionEvent::redundancyEliminated(
                  I1, I2, S, DecisionReason::SubsumedAtCommonSlot));
              // The subsumer must be placeable inside the victim's safe
              // range, and inside the range of every entry the victim
              // stood in for: restrict it (S itself is always common).
              restrictTo(C2, C1.OriginalCandidates);
              for (int V : StandsFor[I1])
                restrictTo(C2, Plan.Entries[V].OriginalCandidates);
              StandsFor[I2].push_back(I1);
              StandsFor[I2].insert(StandsFor[I2].end(),
                                   StandsFor[I1].begin(),
                                   StandsFor[I1].end());
              // The subsumer also inherits any diagonal-phase linkage.
              C2.DiagIds.insert(C2.DiagIds.end(), C1.DiagIds.begin(),
                                C1.DiagIds.end());
            }
            break;
          }
        }
      }
    }
  }

  /// True if \p Subsumer is transitively recorded as subsumed by \p Entry.
  static bool isTransitiveSubsumer(const CommPlan &Plan, int Entry,
                                   int Subsumer) {
    int Cur = Subsumer;
    std::set<int> Seen;
    while (Cur >= 0 && Seen.insert(Cur).second) {
      if (Cur == Entry)
        return true;
      Cur = Plan.Entries[Cur].SubsumedBy;
    }
    return false;
  }

  /// Intersects \p E's candidates with \p Allowed (keeps at least one slot;
  /// callers guarantee nonempty intersection). Membership tests run against
  /// the sorted dense ids of \p Allowed; \p E's candidate order is kept.
  void restrictTo(CommEntry &E, const SlotSpan &Allowed) {
    ++SlotSetMerges;
    std::vector<int> &AllowedIds = RestrictScratch;
    AllowedIds.clear();
    AllowedIds.reserve(Allowed.size());
    for (const Slot &S : Allowed)
      AllowedIds.push_back(slotIdOf(S));
    std::sort(AllowedIds.begin(), AllowedIds.end());
    SlotSpan &Cand = E.Candidates;
    auto Outside = [&](const Slot &S) {
      return !std::binary_search(AllowedIds.begin(), AllowedIds.end(),
                                 slotIdOf(S));
    };
    // Keep the original set when the intersection would be empty (callers
    // guarantee nonempty, but stay defensive like the vector version).
    bool AnyKept = false;
    for (const Slot &S : Cand)
      AnyKept |= !Outside(S);
    if (AnyKept)
      Cand.removeIf(Outside);
  }

  void greedyChoose(CommPlan &Plan) {
    // Figure 9(g): most-constrained entry first; each picks the candidate
    // where it can combine with the most other entries (ties toward the
    // latest slot, which reduces buffer/cache contention — Section 4.7).
    // Axis phases of one decomposed diagonal choose jointly and land on a
    // common slot, so the overlap forwarding order of Section 2.2 holds.
    std::map<int, std::vector<int>> Units; // DiagId -> entries.
    std::vector<int> UnitOf(Plan.Entries.size(), -1);
    for (const CommEntry &E : Plan.Entries) {
      if (E.Eliminated)
        continue;
      for (int D : E.DiagIds) {
        Units[D].push_back(E.Id);
        UnitOf[E.Id] = D;
      }
    }
    // Merge entries that share any DiagId into one unit (rare chains).
    // Entries with several DiagIds keep the first as canonical.

    std::vector<std::vector<int>> Work; // Units of entries to place.
    std::vector<char> Seen(Plan.Entries.size(), 0);
    for (const CommEntry &E : Plan.Entries) {
      if (E.Eliminated || Seen[E.Id])
        continue;
      std::vector<int> Unit = {E.Id};
      Seen[E.Id] = 1;
      for (int D : E.DiagIds)
        for (int Sib : Units[D])
          if (!Seen[Sib]) {
            Seen[Sib] = 1;
            Unit.push_back(Sib);
          }
      Work.push_back(std::move(Unit));
    }
    std::sort(Work.begin(), Work.end(),
              [&](const std::vector<int> &A, const std::vector<int> &B) {
                size_t CA = Plan.Entries[A[0]].Candidates.size();
                size_t CB = Plan.Entries[B[0]].Candidates.size();
                return CA != CB ? CA < CB : A[0] < B[0];
              });

    // Live candidate counts per (slot, compatibility class), maintained as
    // units pin their slots: countAt(E, S) = how many *other* live entries
    // of E's class currently list S. compatibleWith partitions non-General
    // entries into exactly these classes (General never matches, and its
    // unique class only ever holds E itself, which the self-term removes),
    // so the count equals the original per-entry scan.
    int NumSlots = Ctx.G.numSlots();
    // Flat [slot][class] count matrix: one allocation, cache-friendly rows.
    std::vector<int> ClassCount(
        static_cast<size_t>(NumSlots) * NumCompatClasses, 0);
    auto cellOf = [&](int SlotId, int Cls) -> int & {
      return ClassCount[static_cast<size_t>(SlotId) * NumCompatClasses + Cls];
    };
    std::vector<std::vector<int>> SortedCand(Plan.Entries.size());
    for (const CommEntry &E : Plan.Entries) {
      if (E.Eliminated)
        continue;
      for (const Slot &S : E.Candidates) {
        int Id = slotIdOf(S);
        cellOf(Id, CompatClass[E.Id])++;
        SortedCand[E.Id].push_back(Id);
      }
      std::sort(SortedCand[E.Id].begin(), SortedCand[E.Id].end());
    }
    auto countAt = [&](const CommEntry &E, const Slot &S) {
      ++PairCompares;
      int Id = slotIdOf(S);
      int Count = cellOf(Id, CompatClass[E.Id]);
      // Exclude E itself when it still lists S.
      if (std::binary_search(SortedCand[E.Id].begin(),
                             SortedCand[E.Id].end(), Id))
        --Count;
      return Count;
    };
    // Pins entry E to exactly \p S, keeping the counts in sync.
    auto pinTo = [&](CommEntry &E, const Slot &S) {
      int Cls = CompatClass[E.Id];
      for (int Id : SortedCand[E.Id])
        cellOf(Id, Cls)--;
      int SId = slotIdOf(S);
      cellOf(SId, Cls)++;
      SortedCand[E.Id] = {SId};
      E.Candidates.assignSingle(S);
      E.Chosen = S;
    };

    for (const std::vector<int> &Unit : Work) {
      // Common candidate slots of the unit: filter the first member's list
      // in place (its order is preserved) against a dense mark of each
      // later member's list.
      SlotMarks.ensure(NumSlots);
      const SlotSpan &Cand0 = Plan.Entries[Unit[0]].Candidates;
      std::vector<Slot> Common(Cand0.begin(), Cand0.end());
      for (size_t I = 1; I < Unit.size(); ++I) {
        ++SlotSetMerges;
        SlotMarks.reset();
        for (const Slot &S : Plan.Entries[Unit[I]].Candidates)
          SlotMarks.set(slotIdOf(S), 1);
        Common.erase(std::remove_if(Common.begin(), Common.end(),
                                    [&](const Slot &S) {
                                      return !SlotMarks.get(slotIdOf(S));
                                    }),
                     Common.end());
      }
      // Subset elimination may have pruned the live sets apart; any original
      // candidate is still a *safe* position (pruning is an optimization),
      // so fall back to the intersection of the original ranges.
      if (Common.empty() && Unit.size() > 1) {
        const SlotSpan &Orig0 = Plan.Entries[Unit[0]].OriginalCandidates;
        Common.assign(Orig0.begin(), Orig0.end());
        for (size_t I = 1; I < Unit.size(); ++I) {
          ++SlotSetMerges;
          SlotMarks.reset();
          for (const Slot &S : Plan.Entries[Unit[I]].OriginalCandidates)
            SlotMarks.set(slotIdOf(S), 1);
          Common.erase(std::remove_if(Common.begin(), Common.end(),
                                      [&](const Slot &S) {
                                        return !SlotMarks.get(slotIdOf(S));
                                      }),
                       Common.end());
        }
      }
      // A unit with no common slot at all degrades to independent choice
      // (cannot happen for phases of one use, which share their range).
      if (Common.empty()) {
        for (int Id : Unit)
          Common.push_back(Plan.Entries[Id].Candidates.front());
        for (size_t I = 0; I != Unit.size(); ++I)
          pinTo(Plan.Entries[Unit[I]], Common[I]);
        continue;
      }
      Slot BestSlot = Common.front();
      int BestCount = -1;
      for (const Slot &S : Common) {
        int Count = 0;
        for (int Id : Unit)
          Count += countAt(Plan.Entries[Id], S);
        if (Count > BestCount ||
            (Count == BestCount && slotLater(S, BestSlot))) {
          BestCount = Count;
          BestSlot = S;
        }
      }
      for (int Id : Unit)
        pinTo(Plan.Entries[Id], BestSlot);
    }
  }

  void runGlobal(CommPlan &Plan) {
    subsetElimination(Plan);
    redundancyElimination(Plan);
    greedyChoose(Plan);
    buildGroups(Plan);
    // finalizeGroups (caller) applies the latest-common-position motion.
  }

  // --- Strategy: optimal (exhaustive, Section 6.1 ablation) ----------------

  void runOptimal(CommPlan &Plan) {
    // Reuse elimination phases (they are safe), then search the candidate
    // cross-product for the placement minimizing the number of groups.
    subsetElimination(Plan);
    redundancyElimination(Plan);

    std::vector<int> Active;
    for (const CommEntry &E : Plan.Entries)
      if (!E.Eliminated)
        Active.push_back(E.Id);

    double Space = 1;
    for (int Id : Active)
      Space *= static_cast<double>(Plan.Entries[Id].Candidates.size());
    if (Active.size() > 16 || Space > 2e6) {
      // Too large to enumerate: fall back to the greedy heuristic.
      greedyChoose(Plan);
      buildGroups(Plan);
      return;
    }

    std::vector<Slot> Best(Active.size());
    std::vector<Slot> Cur(Active.size());
    int BestGroups = -1;

    // Counts groups for a full assignment without materializing them.
    auto countGroups = [&]() {
      std::map<Slot, std::vector<int>> BySlot;
      for (size_t I = 0; I != Active.size(); ++I)
        BySlot[Cur[I]].push_back(Active[I]);
      int N = 0;
      for (auto &[S, Ids] : BySlot) {
        std::vector<CommGroup> Groups;
        for (int Id : Ids) {
          CommEntry &E = Plan.Entries[Id];
          bool Joined = false;
          for (CommGroup &G : Groups) {
            if (canJoinGroup(G, Plan.Entries, E, S)) {
              G.Members.push_back(Id);
              Joined = true;
              break;
            }
          }
          if (!Joined) {
            CommGroup G;
            G.Kind = E.M.Kind;
            G.M = E.M;
            G.Members = {Id};
            Groups.push_back(std::move(G));
          }
        }
        N += static_cast<int>(Groups.size());
      }
      return N;
    };

    std::function<void(size_t)> Rec = [&](size_t I) {
      if (I == Active.size()) {
        int N = countGroups();
        if (BestGroups < 0 || N < BestGroups) {
          BestGroups = N;
          Best = Cur;
        }
        return;
      }
      for (const Slot &S : Plan.Entries[Active[I]].Candidates) {
        Cur[I] = S;
        Rec(I + 1);
      }
    };
    Rec(0);

    for (size_t I = 0; I != Active.size(); ++I) {
      Plan.Entries[Active[I]].Chosen = Best[I];
      Plan.Entries[Active[I]].Candidates.assignSingle(Best[I]);
    }
    buildGroups(Plan);
  }

  const AnalysisContext &Ctx;
  const PlacementOptions &Opts;
  /// Per-(entry, level) abstract section descriptor table, computed on first
  /// use. SoA layout: one dense int32 index row per level (lazily added)
  /// pointing into a stable pool, instead of a unique_ptr box per cell.
  class AsdIndex {
  public:
    void reset(int NumEntries) {
      N = NumEntries;
      ByLevel.clear();
    }
    int32_t &at(int Entry, int Level) {
      while (static_cast<int>(ByLevel.size()) <= Level)
        ByLevel.emplace_back(N, -1);
      return ByLevel[Level][Entry];
    }

  private:
    int N = 0;
    std::vector<std::vector<int32_t>> ByLevel;
  };
  AsdIndex AsdIdx;
  /// Descriptor pool; deque for reference stability (asdAt results are held
  /// across further asdAt calls in the pairwise scans).
  std::deque<Asd> AsdPool;
  /// Pattern-class ids per entry (see computeClasses).
  std::vector<int> CompatClass;
  std::vector<int> SubsumeClass;
  int NumCompatClasses = 0;
  /// Scratch tables reused across the indexed passes.
  DenseTable SlotMarks;
  std::vector<int> RestrictScratch;
  SlotMemberTable SM;
  std::vector<int> CandOff, CandIds; ///< Entry -> sorted candidate ids.
  std::vector<char> Cleared;         ///< Used slot -> cleared this pass.
  std::vector<int> ByClass;          ///< One slot's members by class.
  /// Instrumentation: pairwise comparisons actually performed by the
  /// subset/redundancy/combining scans, sorted-id set merges, and the range
  /// analysis' dependence solves and walk steps.
  int64_t PairCompares = 0;
  int64_t SlotSetMerges = 0;
  RangeWork Range;
  uint64_t DomQueriesStart = 0;
};

} // namespace

CommPlan gca::planCommunication(const AnalysisContext &Ctx,
                                const PlacementOptions &Opts) {
  return Placer(Ctx, Opts).run();
}

int gca::origGroupCount(const AnalysisContext &Ctx, const CommPlan &Plan,
                        const PlacementOptions &Opts) {
  PlacementOptions OrigOpts = Opts;
  OrigOpts.Strat = Strategy::Orig;
  OrigOpts.Stats = nullptr;
  return Placer(Ctx, OrigOpts).origGroups(Plan);
}

std::string CommPlan::str(const Routine &R) const {
  std::string Out = strFormat("plan[%s]: %d entries, %d groups; %s\n",
                              strategyName(Strat),
                              static_cast<int>(Entries.size()),
                              static_cast<int>(Groups.size()),
                              Stats.str().c_str());
  const std::vector<std::string> &Names = R.loopVarNames();
  for (const CommGroup &G : Groups) {
    Out += strFormat("  group %d @(B%d,%d) %s:", G.Id, G.Placement.Node,
                     G.Placement.Index, commKindName(G.Kind));
    for (const Asd &A : G.Data) {
      Out += ' ';
      Out += A.str(&Names, R.array(A.ArrayId).Name);
    }
    Out += strFormat("  members=%d attached=%d\n",
                     static_cast<int>(G.Members.size()),
                     static_cast<int>(G.Attached.size()));
  }
  return Out;
}
