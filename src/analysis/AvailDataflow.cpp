//===- analysis/AvailDataflow.cpp - Must-availability verifier ------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "analysis/AvailDataflow.h"

#include "support/Stats.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

using namespace gca;

namespace {

bool validSlot(const Cfg &G, const Slot &S) {
  return S.Node >= 0 && S.Node < static_cast<int>(G.numNodes()) &&
         S.Index >= 0 &&
         S.Index <= static_cast<int>(G.node(S.Node).Stmts.size());
}

/// Why a fact can die on a freshness path, for the violation message.
struct Killer {
  const AssignStmt *Def = nullptr;
  int Level = 0; ///< 0 = loop-independent; else the carrying level.
};

/// A transfer event of one fact inside a node. Events are applied in
/// (Pos, IsKill) order: a communication at slot p fires before statement p
/// executes, so a GEN at p precedes the kill of statement p, and the kill of
/// statement p precedes a GEN at slot p+1.
struct Event {
  int Node = -1;
  int Pos = 0;
  bool IsKill = false;
  bool operator<(const Event &O) const {
    if (Node != O.Node)
      return Node < O.Node;
    return Pos != O.Pos ? Pos < O.Pos : IsKill < O.IsKill;
  }
};

/// One availability fact: "entry E's communicated section is available".
struct Fact {
  int EntryId = -1;
  int GroupId = -1;
  bool Placed = false;    ///< Serving group's slot exists in the CFG.
  bool Generated = false; ///< Descriptors cover the section: GEN emitted.
  RegSection Needed;      ///< The section the use requires (for messages).
  Slot QueryPoint;        ///< slotBefore(UseStmt).
  int PlaceLoop = -1;     ///< The placement's innermost loop, or -1.
  /// The GEN and the dependence kills, sorted.
  std::vector<Event> Events;
  /// The loops whose back edges carry a dependence kill.
  std::vector<int> Carried;
  std::vector<Killer> Killers;
};

} // namespace

struct AvailDataflow::Impl {
  const AnalysisContext &Ctx;
  const CommPlan &Plan;

  std::vector<Fact> Facts;
  std::vector<int> FactOfEntry; ///< Entry id -> fact id (-1).

  /// Per loop, then top level last: the loop chain, outermost first. Chain
  /// R is ChainIds[ChainStart[R], ChainStart[R + 1]).
  std::vector<int> ChainIds;
  std::vector<size_t> ChainStart;
  std::vector<int> RpoIndex; ///< Node -> reverse post-order index, or -1.

  /// The walk's state, allocated once per routine: a node belongs to the
  /// current walk when its Seen entry equals Epoch.
  mutable std::vector<uint32_t> Seen;
  mutable uint32_t Epoch = 0;
  mutable std::vector<int> Pending;
  mutable int64_t WalkNodes = 0;

  Impl(const AnalysisContext &Ctx, const CommPlan &Plan)
      : Ctx(Ctx), Plan(Plan) {
    buildNodeMaps();
    buildFacts();
    Seen.assign(Ctx.G.numNodes(), 0);
  }

  /// The loop chain of \p Node (the loops containing it), outermost first.
  std::span<const int> chainOf(int Node) const {
    int L = Ctx.G.loopOf(Node);
    size_t R = L >= 0 ? static_cast<size_t>(L) : ChainStart.size() - 2;
    return {ChainIds.data() + ChainStart[R], ChainStart[R + 1] - ChainStart[R]};
  }

  /// Is loop \p Inner loop \p L or inside it? -1 is the top level, which
  /// no loop encloses. A level-k loop is entry k - 1 of the chain of every
  /// loop it encloses.
  bool encloses(int L, int Inner) const {
    if (Inner < 0)
      return false;
    size_t Level = static_cast<size_t>(Ctx.G.loop(L).Level);
    size_t Begin = ChainStart[Inner];
    return Level <= ChainStart[Inner + 1] - Begin &&
           ChainIds[Begin + Level - 1] == L;
  }

  // --- Construction ---------------------------------------------------------

  void buildNodeMaps() {
    const Cfg &G = Ctx.G;
    int N = static_cast<int>(G.numNodes());
    int NumLoops = static_cast<int>(G.numLoops());
    ChainStart.assign(1, 0);
    for (int Id = 0; Id != NumLoops; ++Id) {
      size_t Begin = ChainIds.size();
      for (int L = Id; L >= 0; L = G.loop(L).Parent)
        ChainIds.push_back(L);
      std::reverse(ChainIds.begin() + Begin, ChainIds.end());
      ChainStart.push_back(ChainIds.size());
    }
    ChainStart.push_back(ChainIds.size()); // The top level's empty chain.
    // Reverse post-order over successors from ENTRY.
    std::vector<int> Rpo;
    std::vector<char> State(N, 0); // 0 unvisited, 1 on stack, 2 done.
    std::vector<std::pair<int, size_t>> Stack;
    Stack.emplace_back(G.entry(), 0);
    State[G.entry()] = 1;
    while (!Stack.empty()) {
      auto &[Node, NextSucc] = Stack.back();
      const std::vector<int> &Succs = G.node(Node).Succs;
      if (NextSucc < Succs.size()) {
        int S = Succs[NextSucc++];
        if (!State[S]) {
          State[S] = 1;
          Stack.emplace_back(S, 0);
        }
      } else {
        State[Node] = 2;
        Rpo.push_back(Node);
        Stack.pop_back();
      }
    }
    std::reverse(Rpo.begin(), Rpo.end());
    RpoIndex.assign(N, -1);
    for (int I = 0, E = static_cast<int>(Rpo.size()); I != E; ++I)
      RpoIndex[Rpo[I]] = I;
  }

  /// The entry's data descriptor at placement level \p Level, re-derived
  /// from the references alone: union the per-reference sections, widen by
  /// the diagonal-decomposition augmentation, clamp constant bounds to the
  /// array. (Deliberately independent of core/Detect's derivation — the
  /// verifier recomputes what the plan claims.)
  RegSection neededSection(const CommEntry &E, int Level) const {
    const ArrayDecl &A = Ctx.R.array(E.ArrayId);
    RegSection D = Ctx.sectionOfRef(E.Refs[0], Level);
    for (size_t I = 1; I < E.Refs.size(); ++I) {
      RegSection Other = Ctx.sectionOfRef(E.Refs[I], Level);
      RegSection U;
      int64_t UE, SE;
      if (D.unionApprox(Other, U, UE, SE))
        D = std::move(U);
      // A failed union keeps the first section; the augmentation below
      // still widens to the largest shift.
    }
    for (unsigned Dim = 0, ED = D.rank(); Dim != ED; ++Dim) {
      SecDim &SD = D.dim(Dim);
      if (Dim < E.Augment.size()) {
        if (E.Augment[Dim][0] != 0)
          SD.Lo = SD.Lo - E.Augment[Dim][0];
        if (E.Augment[Dim][1] != 0)
          SD.Hi = SD.Hi + E.Augment[Dim][1];
      }
      if (Dim < A.rank()) {
        if (SD.Lo.isConstant() && SD.Lo.constValue() < A.Lo[Dim])
          SD.Lo = AffineExpr::constant(A.Lo[Dim]);
        if (SD.Hi.isConstant() && SD.Hi.constValue() > A.Hi[Dim])
          SD.Hi = AffineExpr::constant(A.Hi[Dim]);
      }
    }
    return D;
  }

  void buildFacts() {
    const Cfg &G = Ctx.G;
    int N = static_cast<int>(G.numNodes());
    FactOfEntry.assign(Plan.Entries.size(), -1);

    // The kill screen below keeps a def when the region node it projects to
    // is a query region or lies in an RPO window. Per (placement loop,
    // array), the array's defs inside the loop keyed by that node's RPO
    // index and sorted, so the kept defs are a few ranges of the list
    // instead of a scan over every def of the array. Pos indexes the
    // array's defs in program order (Ssa::arrayDefs).
    struct KeyedDef {
      int Key, Pos;
      bool operator<(const KeyedDef &O) const {
        return Key != O.Key ? Key < O.Key : Pos < O.Pos;
      }
    };
    std::unordered_map<int64_t, std::vector<KeyedDef>> ScreenLists;
    const int64_t NumArrays = static_cast<int64_t>(Ctx.R.arrays().size());
    std::vector<int> Picked, QueryRegions;

    // A subsumer cited by a PartiallyReduced event is also queried at the
    // reduced entry's use (check() below), so its kill screen must cover
    // that point too.
    std::vector<std::vector<const AssignStmt *>> ExtraQueryStmts(
        Plan.Entries.size());
    for (const DecisionEvent &Ev : Plan.Decisions) {
      if (Ev.Kind != DecisionKind::PartiallyReduced)
        continue;
      if (Ev.EntryId < 0 ||
          Ev.EntryId >= static_cast<int>(Plan.Entries.size()) ||
          Ev.OtherId < 0 ||
          Ev.OtherId >= static_cast<int>(Plan.Entries.size()) ||
          !Plan.Entries[Ev.EntryId].UseStmt)
        continue;
      ExtraQueryStmts[Ev.OtherId].push_back(Plan.Entries[Ev.EntryId].UseStmt);
    }

    DepDirs Scratch;
    std::vector<char> LevelAdded;
    Facts.reserve(Plan.Entries.size());
    for (const CommEntry &E : Plan.Entries) {
      if (E.M.Kind == CommKind::Reduce)
        continue; // Reductions fire at their statement; nothing to track.
      if (E.GroupId < 0 || E.GroupId >= static_cast<int>(Plan.Groups.size()))
        continue; // verifyPlanIntegrity reports the dangling reference.
      if (E.Refs.empty() || E.ArrayId < 0 ||
          E.ArrayId >= static_cast<int>(Ctx.R.arrays().size()) ||
          !E.UseStmt)
        continue;
      const CommGroup &Grp = Plan.Groups[E.GroupId];

      Fact F;
      F.EntryId = E.Id;
      F.GroupId = Grp.Id;
      F.QueryPoint = G.slotBefore(E.UseStmt);
      F.Placed = validSlot(G, Grp.Placement);

      if (F.Placed) {
        F.PlaceLoop = G.loopOf(Grp.Placement.Node);
        int Level = Ctx.slotLevel(Grp.Placement);
        F.Needed = E.ReducedD ? *E.ReducedD : neededSection(E, Level);
        // GEN only when the group really communicates the section: array,
        // containment, and (for subsumption-served entries) the mapping
        // subset test of Section 4.6. A shrunk or retargeted descriptor
        // generates nothing, and the coverage family reports it.
        for (const Asd &Data : Grp.Data) {
          if (Data.ArrayId != E.ArrayId || !F.Needed.containedIn(Data.D))
            continue;
          if (E.Eliminated && !E.M.subsumedBy(Data.M))
            continue;
          F.Generated = true;
          break;
        }
        if (F.Generated)
          F.Events.push_back({Grp.Placement.Node, Grp.Placement.Index, false});
      }

      // Dependence kills, mirroring IsArrayDep feasibility (Figure 8(d)):
      // a loop-independent flow dependence kills right after the defining
      // statement; a dependence carried at level L kills on the back edge
      // of the level-L loop of the use's nest. A communication legally
      // placed at that loop's header top survives: the header GEN re-fires
      // before the killed value would be read.
      //
      // A fact that never GENs has nothing to kill, and a kill can change a
      // query only when some path runs placement -> def -> query point with
      // no back edge of a loop enclosing the placement: those back edges
      // already kill the fact structurally, and the placement re-GENs it
      // before any later kill could be observed. Such paths stay inside the
      // placement's innermost loop, whose body — child loops collapsed to
      // their preheaders — is acyclic with RPO monotone along every edge.
      // So project def, placement, and query points into that region: a def
      // outside the loop is irrelevant, one sharing a child loop with a
      // query point is kept, and the rest must fall in the RPO window.
      if (F.Placed && F.Generated) {
        const std::vector<int> &UseNest = G.loopNestOf(E.UseStmt);
        std::span<const int> PlaceChain = chainOf(Grp.Placement.Node);
        int Lp = PlaceChain.empty() ? -1 : PlaceChain.back();
        // The node's region directly inside Lp: the node itself, the
        // preheader of its enclosing child loop of Lp, or -1 outside Lp.
        auto projNode = [&](int Node) -> int {
          std::span<const int> NC = chainOf(Node);
          size_t At = 0;
          if (Lp >= 0) {
            while (At != NC.size() && NC[At] != Lp)
              ++At;
            if (At == NC.size())
              return -1; // Not inside the placement's loop.
            ++At;
          }
          if (At == NC.size())
            return Node; // Directly in the region's body.
          return G.loop(NC[At]).Preheader;
        };
        int PlaceRpo = -1, LastRpo = -1;
        QueryRegions.clear();
        bool NoScreen = false;
        auto addQueryNode = [&](int Node, bool IsPlacement) {
          if (Node < 0 || Node >= N)
            return;
          int PN = projNode(Node);
          if (PN < 0)
            return; // Out of scope: that query fails with no kills needed.
          if (PN >= N || RpoIndex[PN] < 0) {
            NoScreen = true;
            return;
          }
          if (IsPlacement)
            PlaceRpo = RpoIndex[PN];
          LastRpo = std::max(LastRpo, RpoIndex[PN]);
          if (std::find(QueryRegions.begin(), QueryRegions.end(), PN) ==
              QueryRegions.end())
            QueryRegions.push_back(PN);
        };
        addQueryNode(Grp.Placement.Node, true);
        addQueryNode(F.QueryPoint.Node, false);
        for (const AssignStmt *Q : ExtraQueryStmts[E.Id])
          addQueryNode(G.nodeOf(Q), false);
        if (PlaceRpo < 0)
          NoScreen = true;
        // With every query point out of scope the queries fail outright and
        // no kill can change them; skip the def sweep entirely.
        bool SkipDefs = !NoScreen && LastRpo < 0;
        std::span<const int> AllDefs = Ctx.S.arrayDefs(E.ArrayId);
        Picked.clear();
        if (NoScreen) {
          for (int P = 0, End = static_cast<int>(AllDefs.size()); P != End;
               ++P)
            Picked.push_back(P);
        } else if (!SkipDefs) {
          std::vector<KeyedDef> &Keyed =
              ScreenLists[(Lp + 1) * NumArrays + E.ArrayId];
          if (Keyed.empty()) {
            std::span<const int> Inside =
                Lp >= 0 ? Ctx.S.arrayDefsInLoop(E.ArrayId, Lp) : AllDefs;
            for (const int &DefId : Inside) {
              int DefNode = G.nodeOf(Ctx.S.def(DefId).Stmt);
              int PN = projNode(DefNode);
              if (PN < 0)
                continue; // Outside the placement's loop: cannot matter.
              if (PN >= N || RpoIndex[PN] < 0)
                PN = DefNode;
              Keyed.push_back({RpoIndex[PN],
                               static_cast<int>(&DefId - AllDefs.data())});
            }
            std::sort(Keyed.begin(), Keyed.end());
          }
          auto pickKeys = [&](int Lo, int Hi) {
            for (auto It = std::lower_bound(Keyed.begin(), Keyed.end(),
                                            KeyedDef{Lo, -1});
                 It != Keyed.end() && It->Key <= Hi; ++It)
              Picked.push_back(It->Pos);
          };
          pickKeys(PlaceRpo, LastRpo);
          // Distinct nodes have distinct RPO indices, so a query region
          // outside the window is one more key.
          for (int Q : QueryRegions)
            if (RpoIndex[Q] < PlaceRpo || RpoIndex[Q] > LastRpo)
              pickKeys(RpoIndex[Q], RpoIndex[Q]);
          std::sort(Picked.begin(), Picked.end()); // Program order.
        }
        for (int P : Picked) {
          const AssignStmt *D = Ctx.S.def(AllDefs[P]).Stmt;
          int DefNode = G.nodeOf(D);
          bool LiAdded = false;
          LevelAdded.assign(UseNest.size() + 1, 0);
          for (const ArrayRef &Ref : E.Refs) {
            Ctx.Dep.flowDirections(D, E.UseStmt, Ref, Scratch);
            if (!Scratch.Possible)
              continue;
            if (!LiAdded && DepTester::loopIndependentFromDirs(Scratch)) {
              F.Events.push_back({DefNode, G.indexOf(D), true});
              F.Killers.push_back({D, 0});
              LiAdded = true;
            }
            for (int L = 1; L <= Scratch.CNL; ++L) {
              if (LevelAdded[L] || !DepTester::carriedFromDirs(Scratch, L) ||
                  L > static_cast<int>(UseNest.size()))
                continue;
              F.Carried.push_back(UseNest[L - 1]);
              F.Killers.push_back({D, L});
              LevelAdded[L] = 1;
            }
          }
        }
      }

      std::sort(F.Events.begin(), F.Events.end());
      FactOfEntry[E.Id] = static_cast<int>(Facts.size());
      Facts.push_back(std::move(F));
    }
  }

  // --- The walk -------------------------------------------------------------
  //
  // Facts are independent gen/kill must-facts, so the greatest fixed point
  // of the availability equations is the meet over all paths from ENTRY: a
  // fact holds at a point unless some path reaches it without a GEN after
  // the path's last kill. A query walks predecessors backward from the
  // point. A path stops at the fact's last event in a node, which covers it
  // (GEN) or fails it (kill), and fails where the equations give the fact
  // nothing to carry in: at ENTRY, at a node with no predecessors, outside
  // the placement's innermost loop (the descriptor's variables are unbound
  // there), and on a killing back edge.

  /// The fact's state after the events of \p Node before slot index
  /// \p Index: a GEN at the index counts and a kill there does not, and
  /// kills count only when \p Fresh. 1 generated, 0 killed, -1 no event.
  int lastEvent(const Fact &F, int Node, int Index, bool Fresh) const {
    int State = -1;
    for (auto It = std::lower_bound(F.Events.begin(), F.Events.end(),
                                    Event{Node, -1, false});
         It != F.Events.end() && It->Node == Node; ++It) {
      if (It->Pos > Index || (It->Pos == Index && It->IsKill))
        break;
      if (!It->IsKill)
        State = 1;
      else if (Fresh)
        State = 0;
    }
    return State;
  }

  /// The local part of \p Node's In: false when no path can carry the fact
  /// into \p Node, else pushes its unvisited predecessors. A back edge into
  /// the header of loop L kills the fact when L encloses the placement (the
  /// descriptor names other elements each iteration; the placement re-GENs
  /// before any use of the next one) and, when \p Fresh, when L carries one
  /// of the fact's dependences. An unreachable predecessor imposes nothing.
  bool pushPreds(const Fact &F, int Node, bool Fresh) const {
    const Cfg &G = Ctx.G;
    const std::vector<int> &Preds = G.node(Node).Preds;
    if (Node == G.entry() || Preds.empty())
      return false;
    if (F.PlaceLoop >= 0 && !encloses(F.PlaceLoop, G.loopOf(Node)))
      return false;
    int HL = G.node(Node).Kind == NodeKind::Header ? G.loopOf(Node) : -1;
    bool KilledOnBackEdge =
        HL >= 0 && (encloses(HL, F.PlaceLoop) ||
                    (Fresh && std::find(F.Carried.begin(), F.Carried.end(),
                                        HL) != F.Carried.end()));
    for (int P : Preds) {
      if (KilledOnBackEdge && P != G.loop(HL).Preheader)
        return false;
      if (RpoIndex[P] < 0 || Seen[P] == Epoch)
        continue;
      Seen[P] = Epoch;
      Pending.push_back(P);
    }
    return true;
  }

  /// Is fact \p FactId available at \p At? With \p Fresh the dependence
  /// kills count (the avail domain: fired on every path and still fresh);
  /// without, only GEN and the structural kills do (the reach domain: fired
  /// on every path), which is asked only to classify a failed query.
  bool available(int FactId, const Slot &At, bool Fresh) const {
    const Fact &F = Facts[FactId];
    if (!F.Generated || !validSlot(Ctx.G, At))
      return false; // No GEN anywhere: no path is covered.
    if (int State = lastEvent(F, At.Node, At.Index, Fresh); State >= 0)
      return State == 1;
    if (RpoIndex[At.Node] < 0)
      return false; // An unreachable point claims nothing.
    ++Epoch;
    Pending.clear();
    ++WalkNodes;
    if (!pushPreds(F, At.Node, Fresh))
      return false;
    while (!Pending.empty()) {
      int Node = Pending.back();
      Pending.pop_back();
      ++WalkNodes;
      int State = lastEvent(F, Node, INT_MAX, Fresh);
      if (State == 0 || (State < 0 && !pushPreds(F, Node, Fresh)))
        return false;
    }
    return true;
  }

  // --- Checks ---------------------------------------------------------------

  std::string slotStr(const Slot &S) const {
    return strFormat("(B%d,%d)", S.Node, S.Index);
  }

  SourceLoc locOf(const CommEntry &E) const {
    if (!E.Refs.empty() && E.Refs[0].Loc.isValid())
      return E.Refs[0].Loc;
    return E.UseStmt ? E.UseStmt->loc() : SourceLoc();
  }

  std::string killerStr(const Fact &F) const {
    if (F.Killers.empty())
      return "";
    const Killer &K = F.Killers.front();
    std::string Loc =
        K.Def->loc().isValid() ? K.Def->loc().str() : "<unknown>";
    if (K.Level == 0)
      return strFormat(" (definition at %s can execute after it)",
                       Loc.c_str());
    return strFormat(" (the level-%d loop carries a dependence from the "
                     "definition at %s across iterations)",
                     K.Level, Loc.c_str());
  }

  void check(VerifyReport &Report) const {
    Report.Facts += static_cast<int>(Facts.size());
    for (int FactId = 0, NF = static_cast<int>(Facts.size()); FactId != NF;
         ++FactId) {
      const Fact &F = Facts[FactId];
      ++Report.Checks;
      const CommEntry &E = Plan.Entries[F.EntryId];
      if (available(FactId, F.QueryPoint, true))
        continue;
      std::string Array = Ctx.R.array(E.ArrayId).Name;
      std::string Sec = F.Needed.str(&Ctx.R.loopVarNames());
      const Slot &P = Plan.Groups[F.GroupId].Placement;
      VerifyRule Rule;
      std::string Msg;
      if (!F.Placed) {
        Rule = E.Eliminated ? VerifyRule::AvailRedundancy
                            : VerifyRule::AvailCoverage;
        Msg = strFormat("entry %d of '%s' is served by group %d at a "
                        "non-existent slot %s",
                        E.Id, Array.c_str(), F.GroupId, slotStr(P).c_str());
      } else if (!F.Generated) {
        Rule = E.Eliminated ? VerifyRule::AvailRedundancy
                            : VerifyRule::AvailCoverage;
        Msg = strFormat("section %s of '%s' needed by entry %d is not "
                        "covered by group %d's descriptors at %s",
                        Sec.c_str(), Array.c_str(), E.Id, F.GroupId,
                        slotStr(P).c_str());
      } else if (available(FactId, F.QueryPoint, false)) {
        Rule = E.Eliminated ? VerifyRule::AvailRedundancy
                            : VerifyRule::AvailFreshness;
        Msg = strFormat("section %s of '%s' communicated by group %d at %s "
                        "is stale on a path to the use%s",
                        Sec.c_str(), Array.c_str(), F.GroupId,
                        slotStr(P).c_str(), killerStr(F).c_str());
      } else {
        Rule = E.Eliminated ? VerifyRule::AvailRedundancy
                            : VerifyRule::AvailCoverage;
        Msg = strFormat("section %s of '%s' is not available on every path "
                        "to the use (group %d communicates at %s)",
                        Sec.c_str(), Array.c_str(), F.GroupId,
                        slotStr(P).c_str());
      }
      Report.Violations.push_back({Rule, E.Id, F.GroupId, locOf(E), Msg});
    }

    // Partial redundancy: the remainder descriptor is the entry's own fact;
    // the *rest* of the use's data rides on the subsumer's communication,
    // which therefore must also be must-available at this use.
    for (const DecisionEvent &Ev : Plan.Decisions) {
      if (Ev.Kind != DecisionKind::PartiallyReduced)
        continue;
      if (Ev.EntryId < 0 ||
          Ev.EntryId >= static_cast<int>(Plan.Entries.size()) ||
          Ev.OtherId < 0 ||
          Ev.OtherId >= static_cast<int>(Plan.Entries.size()))
        continue; // verifyPlanIntegrity owns malformed events.
      int SubFact = FactOfEntry[Ev.OtherId];
      int RedFact = FactOfEntry[Ev.EntryId];
      if (SubFact < 0 || RedFact < 0)
        continue;
      ++Report.Checks;
      const CommEntry &Red = Plan.Entries[Ev.EntryId];
      if (available(SubFact, Facts[RedFact].QueryPoint, true))
        continue;
      const Fact &SF = Facts[SubFact];
      Report.Violations.push_back(
          {VerifyRule::AvailRedundancy, Red.Id, Red.GroupId, locOf(Red),
           strFormat("entry %d sends only a remainder, but subsumer entry "
                     "%d's section %s is not available at the reduced use",
                     Red.Id, Ev.OtherId,
                     SF.Needed.str(&Ctx.R.loopVarNames()).c_str())});
    }
    Report.WalkNodes += std::exchange(WalkNodes, 0);
  }
};

AvailDataflow::AvailDataflow(const AnalysisContext &Ctx, const CommPlan &Plan)
    : I(new Impl(Ctx, Plan)) {}

AvailDataflow::~AvailDataflow() = default;

void AvailDataflow::check(VerifyReport &Report) const { I->check(Report); }

int AvailDataflow::numFacts() const {
  return static_cast<int>(I->Facts.size());
}

VerifyReport gca::verifyPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                             const PlacementOptions &Opts,
                             DiagEngine *Diags) {
  VerifyReport Report;
  Report.Strat = Plan.Strat;
  verifyIr(Ctx.R, Ctx.G, Ctx.S, Report);
  verifyPlanIntegrity(Ctx, Plan, Report);
  verifyCombineLegality(Ctx, Plan, Opts, Report);
  AvailDataflow DF(Ctx, Plan);
  DF.check(Report);
  if (StatsRegistry *S = Opts.Stats) {
    S->add("verify.dataflow-facts", Report.Facts);
    S->add("verify.checks", Report.Checks);
    S->add("verify.violations",
           static_cast<int64_t>(Report.Violations.size()));
  }
  if (Diags)
    for (const VerifyViolation &V : Report.Violations)
      Diags->error(V.Loc, "plan verify [%s]: %s", verifyRuleName(V.Rule),
                   V.Message.c_str());
  return Report;
}

VerifyReport gca::auditPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                            const PlacementOptions &Opts) {
  VerifyReport Report;
  Report.Strat = Plan.Strat;
  verifyCombineLegality(Ctx, Plan, Opts, Report);
  return Report;
}
