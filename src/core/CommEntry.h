//===- core/CommEntry.h - Communication entries and plans -------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data model of the placement algorithm: one CommEntry per non-local
/// reference (after diagonal decomposition and per-statement coalescing),
/// carrying its Earliest/Latest analysis, candidate slots, and final
/// placement; CommGroups are the combined aggregate operations the code
/// generator emits (one runtime call site each); a CommPlan is the result of
/// running one placement strategy over a routine.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_CORE_COMMENTRY_H
#define GCA_CORE_COMMENTRY_H

#include "cfg/Cfg.h"
#include "section/Asd.h"
#include "support/Arena.h"

#include <array>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace gca {

class StatsRegistry;

/// A fixed-capacity slot sequence carved out of its plan's arena (SoA slot
/// storage: the Slot payloads of every entry live in a handful of arena
/// blocks instead of one heap vector per entry). The elimination passes only
/// ever shrink candidate sets or collapse them to a chosen slot, so the span
/// mutates in place and never reallocates; the backing memory is owned by
/// CommPlan::Mem and outlives every copy of the plan.
class SlotSpan {
public:
  SlotSpan() = default;
  SlotSpan(Slot *Data, uint32_t Len) : Data(Data), Len(Len) {}

  using value_type = Slot;
  const Slot *begin() const { return Data; }
  const Slot *end() const { return Data + Len; }
  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  const Slot &front() const { return Data[0]; }
  const Slot &back() const { return Data[Len - 1]; }
  const Slot &operator[](size_t I) const { return Data[I]; }

  /// Collapses the span to the single slot \p S (greedy pinning, group
  /// pinning). Requires nonzero capacity, i.e. the span was ever non-empty.
  void assignSingle(const Slot &S) {
    assert(Data && "assignSingle on a span with no storage");
    Data[0] = S;
    Len = 1;
  }

  /// Erase-remove of every slot matching \p P, preserving order.
  template <typename Pred> void removeIf(Pred P) {
    Slot *Out = Data;
    for (Slot *I = Data, *E = Data + Len; I != E; ++I)
      if (!P(*I))
        *Out++ = *I;
    Len = static_cast<uint32_t>(Out - Data);
  }

  void removeValue(const Slot &S) {
    removeIf([&](const Slot &X) { return X == S; });
  }

private:
  Slot *Data = nullptr;
  uint32_t Len = 0;
};

/// One communication requirement for one use.
struct CommEntry {
  int Id = -1;
  const AssignStmt *UseStmt = nullptr;
  /// The references this entry fetches data for (more than one after
  /// per-statement coalescing merged same-pattern references).
  std::vector<ArrayRef> Refs;
  int ArrayId = -1;
  Mapping M;
  /// Extra elements the overlap region must extend by on each side of each
  /// array dim (from diagonal-shift decomposition, Section 2.2); indexed
  /// [dim][0 = low side, 1 = high side].
  std::vector<std::array<int64_t, 2>> Augment;
  /// Diagonal-decomposition linkage: ids shared by the axis-phase entries of
  /// one diagonal reference. Sibling phases must be placed at the same point
  /// (and fire in dimension order there) so corner forwarding through the
  /// overlap regions stays correct (Section 2.2).
  std::vector<int> DiagIds;

  // --- Analysis results (Sections 4.2-4.4) ---
  int EarliestDef = -1; ///< SSA def id returned by Earliest(u).
  Slot EarliestSlot;
  Slot LatestSlot;
  int CommLevel = 0;
  /// Candidate placement slots, in dominance order (earliest first). For
  /// reductions this is the single slot before the use (Section 6.2).
  /// Arena-backed (CommPlan::Mem); elimination shrinks it in place.
  SlotSpan Candidates;
  /// Candidates as originally marked, before subset/redundancy elimination
  /// ("including entries disabled during redundancy elimination" take part
  /// in the final latest-common-position computation). Arena-backed.
  SlotSpan OriginalCandidates;

  // --- Placement outcome (Sections 4.5-4.7) ---
  bool Eliminated = false; ///< Fully redundant; folded into SubsumedBy.
  int SubsumedBy = -1;
  /// Partial redundancy elimination ([14], paper Section 4.6 discussion):
  /// when set, only this remainder section is communicated — the rest is
  /// available from an earlier dominating communication.
  std::optional<RegSection> ReducedD;
  Slot Chosen;
  int GroupId = -1;
};

/// One combined aggregate communication operation (one call site).
struct CommGroup {
  int Id = -1;
  Slot Placement;
  CommKind Kind = CommKind::Local;
  Mapping M; ///< The widest mapping of the members (max shift magnitudes).
  std::vector<int> Members;  ///< Entry ids placed here.
  std::vector<int> Attached; ///< Eliminated entries served by this group.
  /// Descriptors communicated, one per distinct (array, section): evaluated
  /// at the placement slot's nesting level.
  std::vector<Asd> Data;
  /// Per-Data overlap augmentation (widest over contributing entries),
  /// indexed [DataIdx][ArrayDim][0 = low side, 1 = high side]. Receivers of
  /// a shift extend their ghost boxes by this much along the non-shifted
  /// dims (corner forwarding, Section 2.2).
  std::vector<std::vector<std::array<int64_t, 2>>> DataAug;
};

/// What happened to one communication entry (or slot, or group) at one step
/// of the placement algorithm. The ordered log of these events is the
/// explanation of a plan: every entry's path from detection through the
/// elimination phases to its final placement point is recorded, in the
/// deterministic order the algorithm took its decisions.
enum class DecisionKind : uint8_t {
  Detected,              ///< Entry created by detection (Sections 2.2, 4.1).
  RangeComputed,         ///< Earliest/Latest range + candidates (4.2-4.4).
  SubsetSlotCleared,     ///< A slot emptied by subset elimination (4.5).
  RedundancyEliminated,  ///< Entry folded into a subsumer (4.6, Fig. 9(f)).
  PartiallyReduced,      ///< Remainder-only send ([14]; PartialRedundancy).
  CombinedIntoGroup,     ///< Entry admitted to a group (4.7, Fig. 9(g)).
  GroupPlaced,           ///< Group's final latest-common position (4.7).
  LoweredAs,             ///< Group lowered to a collective algorithm
                         ///< (lower/Lower.h): "<op>/<algo> ...".
};

const char *decisionKindName(DecisionKind K);

/// The wording of a decision whose kind has more than one.
enum class DecisionReason : uint8_t {
  None,
  CoveredByDominating,  ///< RedundancyEliminated by earliest placement.
  SubsumedAtCommonSlot, ///< RedundancyEliminated by the global algorithm.
  JoinedGroup,          ///< CombinedIntoGroup: admitted to an open group.
  OpenedGroup,          ///< CombinedIntoGroup: opened a new group.
  AttachedViaSubsumer,  ///< CombinedIntoGroup: served by its subsumer's.
};

/// One record of the placement decision log. Its payload is typed and taken
/// when the decision is made, never re-derived later: members, candidates
/// and slots keep changing after the event. Only decisionDetail() turns it
/// into text, so a compile that never prints the log formats nothing.
struct DecisionEvent {
  DecisionKind Kind = DecisionKind::Detected;
  DecisionReason Reason = DecisionReason::None;
  /// The communication kind (Detected, GroupPlaced).
  CommKind Comm = CommKind::Local;
  /// The entry decided about; -1 for slot- and group-scoped events.
  int EntryId = -1;
  /// The other party: subsumer entry id (RedundancyEliminated,
  /// PartiallyReduced), group id (CombinedIntoGroup, GroupPlaced,
  /// LoweredAs); -1 when not applicable.
  int OtherId = -1;
  /// The slot involved (cleared slot, chosen placement); invalid when n/a.
  Slot Where;
  /// The Latest slot (RangeComputed) or the covering slot
  /// (SubsetSlotCleared).
  Slot Second;
  /// Kind-specific counts, in the order the detail prints them:
  ///   Detected: array id, references, diagonal id (-1: none);
  ///   RangeComputed: candidates, communication level;
  ///   SubsetSlotCleared: entries affected;
  ///   CombinedIntoGroup (JoinedGroup): members after joining;
  ///   GroupPlaced: members, attached entries, data descriptors;
  ///   LoweredAs: ranks, rounds, fused groups (0: standalone).
  int Num[3] = {0, 0, 0};
  /// LoweredAs: the nominal payload, rounded to whole bytes.
  int64_t Bytes = 0;
  /// LoweredAs: the collective operation and algorithm, as the static
  /// strings of collOpName and collAlgoName.
  const char *Op = nullptr;
  const char *Algo = nullptr;

  static DecisionEvent detected(int Entry, CommKind K, int ArrayId, int Refs,
                                int DiagId);
  static DecisionEvent rangeComputed(int Entry, Slot Earliest, Slot Latest,
                                     int Candidates, int Level);
  static DecisionEvent subsetSlotCleared(Slot Cleared, Slot CoveredBy,
                                         int Affected);
  static DecisionEvent redundancyEliminated(int Entry, int Subsumer, Slot S,
                                            DecisionReason Why);
  static DecisionEvent partiallyReduced(int Entry, int Covering, Slot S);
  /// \p Members is the group's size after a JoinedGroup admission.
  static DecisionEvent combinedIntoGroup(int Entry, int Group, Slot S,
                                         DecisionReason Why, int Members = 0);
  static DecisionEvent groupPlaced(int Group, Slot S, CommKind K, int Members,
                                   int Attached, int Data);
  static DecisionEvent loweredAs(int Group, Slot S, const char *Op,
                                 const char *Algo, int Procs, int64_t Bytes,
                                 int Rounds, int Fused);
};

/// The event's specifics as text ("kind=NNC array=a refs=2", "covered by
/// (B4,0); 3 entries affected"), stable across runs. \p R names arrays.
std::string decisionDetail(const DecisionEvent &E, const Routine &R);

using DecisionLog = std::vector<DecisionEvent>;

/// Placement strategies evaluated by the paper (Section 5) plus the
/// exhaustive reference placer used for the Section 6.1 ablation.
enum class Strategy : uint8_t {
  Orig,     ///< Message vectorization only (the paper's "orig" bars).
  Earliest, ///< + earliest-placement redundancy elimination ("nored").
  Global,   ///< The paper's new algorithm ("comb").
  Optimal,  ///< Exhaustive candidate choice (extension, small inputs only).
  /// Earliest placement with same-point combining: the strawman of the
  /// paper's Figure 3 discussion. It combines across arrays only when their
  /// earliest points happen to coincide, which is what makes it sensitive
  /// to the syntactic structure of the source.
  EarliestCombine,
};

const char *strategyName(Strategy S);

/// Options controlling combining (Section 4.7).
struct PlacementOptions {
  Strategy Strat = Strategy::Global;
  /// Combined per-processor data size cap ("currently set to 20 KB for
  /// SP2").
  int64_t CombineThresholdBytes = 20 * 1024;
  /// Union-descriptor growth cap: |D1 u D2| may exceed |D1| + |D2| by at
  /// most this factor ("a small constant").
  double MaxUnionGrowth = 1.5;
  /// Number of processors assumed when estimating per-processor message
  /// sizes for the threshold test.
  int NumProcs = 25;
  /// Decompose diagonal shifts into augmented axis shifts (the pHPF message
  /// coalescing of Section 2.2). Disabled only in ablation studies.
  bool SubsumeDiagonals = true;
  /// Partial redundancy elimination for the earliest-placement baseline:
  /// an entry covered *partially* by an earlier dominating communication
  /// sends only the representable section difference, the behaviour of [14]
  /// that the paper's Figure 4 discussion contrasts against ("reduce the
  /// communication for b2 to ASD(b2) - ASD(b1)").
  bool PartialRedundancy = false;
  /// Section 6.2 extension ("left for future work" in the paper): give
  /// reductions a placement *range* via the reversed analysis — the global
  /// combine may defer from its sum() statement to any dominating point
  /// before the first read of the result scalar, letting reductions
  /// computed at different statements combine. Global/Optimal only.
  bool DeferReductions = false;
  /// When non-null, the placement and verify phases export their counters
  /// (entries detected, subset/redundancy eliminations, combined groups,
  /// checks evaluated) here. Owned by the caller — typically the compilation
  /// Session — so concurrent compilations never share a registry.
  StatsRegistry *Stats = nullptr;
};

/// Static message statistics, per communication kind (the Figure 10 table).
struct CommStats {
  int NumGroups[5] = {0, 0, 0, 0, 0}; ///< Indexed by CommKind.
  int NumEntries = 0;
  int NumEliminated = 0;

  int groups(CommKind K) const { return NumGroups[static_cast<int>(K)]; }
  int totalGroups() const;
  std::string str() const;
};

/// The result of one strategy run.
struct CommPlan {
  Strategy Strat = Strategy::Global;
  std::vector<CommEntry> Entries;
  std::vector<CommGroup> Groups;
  CommStats Stats;
  /// Backing storage of every entry's candidate spans. Shared so plan copies
  /// stay cheap and valid; the spans are read-only once placement returns.
  std::shared_ptr<Arena> Mem;
  /// Why the plan looks the way it does: every detection, range, elimination,
  /// combining and final-placement decision, in algorithm order. Appended by
  /// Detect and the Placer; deterministic for a given (routine, options).
  DecisionLog Decisions;

  std::string str(const Routine &R) const;

  /// One "  <kind> entry=<id> ... <detail>" line per decision event.
  std::string decisionsStr(const Routine &R) const;
};

} // namespace gca

#endif // GCA_CORE_COMMENTRY_H
