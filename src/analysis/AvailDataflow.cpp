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
#include <cstdint>
#include <span>
#include <unordered_map>

using namespace gca;

namespace {

bool validSlot(const Cfg &G, const Slot &S) {
  return S.Node >= 0 && S.Node < static_cast<int>(G.numNodes()) &&
         S.Index >= 0 &&
         S.Index <= static_cast<int>(G.node(S.Node).Stmts.size());
}

/// A fixed-width bit row over the fact universe.
using BitRow = std::vector<uint64_t>;

void rowOr(BitRow &R, const BitRow &O) {
  for (size_t I = 0; I != R.size(); ++I)
    R[I] |= O[I];
}
void rowSetBit(BitRow &R, int B) { R[B >> 6] |= uint64_t(1) << (B & 63); }

/// The two simultaneous domains: Reach sees GEN and the structural kills
/// only ("the communication fired on every path"); Avail additionally sees
/// the dependence kills ("and no definition made it stale").
enum Domain { Reach = 0, Avail = 1 };

/// Why a fact can die on a freshness path, for the violation message.
struct Killer {
  const AssignStmt *Def = nullptr;
  int Level = 0; ///< 0 = loop-independent; else the carrying level.
};

/// One availability fact: "entry E's communicated section is available".
struct Fact {
  int EntryId = -1;
  int GroupId = -1;
  bool Placed = false;    ///< Serving group's slot exists in the CFG.
  bool Generated = false; ///< Descriptors cover the section: GEN emitted.
  RegSection Needed;      ///< The section the use requires (for messages).
  Slot QueryPoint;        ///< slotBefore(UseStmt).
  std::vector<Killer> Killers;
};

/// An intra-node transfer event. Events are applied in (Pos, IsKill) order:
/// a communication at slot p fires before statement p executes, so a GEN at
/// p precedes the kill of statement p, and the kill of statement p precedes
/// a GEN at slot p+1.
struct Event {
  int Pos = 0;
  bool IsKill = false;
  int FactId = -1;
};

} // namespace

struct AvailDataflow::Impl {
  const AnalysisContext &Ctx;
  const CommPlan &Plan;

  std::vector<Fact> Facts;
  std::vector<int> FactOfEntry; ///< Entry id -> fact id (-1).
  int Words = 0;

  std::vector<std::vector<Event>> Events; ///< Per node, sorted.
  /// Per loop, the facts killed on its back edge, per domain. Reach carries
  /// the structural kills (loops enclosing the placement parameterize the
  /// descriptor); Avail adds the carried-dependence kills.
  std::vector<BitRow> BackKill[2];
  /// Scope rows: the facts alive inside each loop (and at top level). A
  /// fact's scope — nodes whose loop chain the placement's chain prefixes —
  /// is exactly the body of the placement's innermost loop, so one row per
  /// loop stands in for a per-node mask.
  BitRow TopScope;
  std::vector<BitRow> LoopScope;
  std::vector<const BitRow *> ScopeOf; ///< Per node, into the rows above.
  /// Per domain, the Out row of every node in one flat array: node N's row
  /// is the Words words at N * Words. In rows are not stored: the meet
  /// (computeIn) derives them from the predecessors' Out rows, and a query
  /// needs only one bit of one.
  std::vector<uint64_t> Out[2];

  const uint64_t *outRow(int Dom, int Node) const {
    return Out[Dom].data() + static_cast<size_t>(Node) * Words;
  }

  /// Per loop, then top level last: the loop chain, outermost first.
  std::vector<std::vector<int>> LoopChains;
  std::vector<int> HeaderLoop; ///< Node -> loop headed, or -1.
  std::vector<int> Rpo;
  std::vector<int> RpoIndex; ///< Node -> position in Rpo, or -1 unreachable.

  Impl(const AnalysisContext &Ctx, const CommPlan &Plan)
      : Ctx(Ctx), Plan(Plan) {
    buildNodeMaps();
    buildFacts();
    solve();
  }

  /// The loop chain of \p Node (the loops containing it), outermost first.
  const std::vector<int> &chainOf(int Node) const {
    int L = Ctx.G.loopOf(Node);
    return LoopChains[L >= 0 ? L : LoopChains.size() - 1];
  }

  // --- Construction ---------------------------------------------------------

  void buildNodeMaps() {
    const Cfg &G = Ctx.G;
    int N = static_cast<int>(G.numNodes());
    int NumLoops = static_cast<int>(G.numLoops());
    LoopChains.assign(NumLoops + 1, {});
    for (int Id = 0; Id != NumLoops; ++Id) {
      for (int L = Id; L >= 0; L = G.loop(L).Parent)
        LoopChains[Id].push_back(L);
      std::reverse(LoopChains[Id].begin(), LoopChains[Id].end());
    }
    HeaderLoop.assign(N, -1);
    for (unsigned L = 0; L != G.numLoops(); ++L) {
      const CfgLoop &Loop = G.loop(static_cast<int>(L));
      if (Loop.Header >= 0 && Loop.Header < N)
        HeaderLoop[Loop.Header] = Loop.Id;
    }
    // Reverse post-order over successors from ENTRY.
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
    std::vector<int> Picked;

    Events.assign(N, {});
    int NumLoops = static_cast<int>(G.numLoops());
    // Sized after the facts are counted; collect (loop, fact, domain)
    // back-edge kills first.
    std::vector<std::pair<int, int>> BackKillReach, BackKillAvail;

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
      int FactId = static_cast<int>(Facts.size());

      if (F.Placed) {
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
          Events[Grp.Placement.Node].push_back(
              {Grp.Placement.Index, false, FactId});
        // Structural kills: every loop enclosing the placement binds a
        // variable the descriptor may be parameterized by — the fact names
        // different elements each iteration, so it dies on the back edge
        // (the placement re-GENs before any use of the next iteration).
        for (int L : chainOf(Grp.Placement.Node)) {
          BackKillReach.emplace_back(L, FactId);
          BackKillAvail.emplace_back(L, FactId);
        }
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
        const std::vector<int> &PlaceChain = chainOf(Grp.Placement.Node);
        int Lp = PlaceChain.empty() ? -1 : PlaceChain.back();
        // The node's region directly inside Lp: the node itself, the
        // preheader of its enclosing child loop of Lp, or -1 outside Lp.
        auto projNode = [&](int Node) -> int {
          const std::vector<int> &NC = chainOf(Node);
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
        std::vector<int> QueryRegions;
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
              Events[DefNode].push_back({G.indexOf(D), true, FactId});
              F.Killers.push_back({D, 0});
              LiAdded = true;
            }
            for (int L = 1; L <= Scratch.CNL; ++L) {
              if (LevelAdded[L] || !DepTester::carriedFromDirs(Scratch, L) ||
                  L > static_cast<int>(UseNest.size()))
                continue;
              BackKillAvail.emplace_back(UseNest[L - 1], FactId);
              F.Killers.push_back({D, L});
              LevelAdded[L] = 1;
            }
          }
        }
      }

      FactOfEntry[E.Id] = FactId;
      Facts.push_back(std::move(F));
    }

    int NumFacts = static_cast<int>(Facts.size());
    Words = (NumFacts + 63) / 64;
    if (Words == 0)
      Words = 1;

    for (int D = 0; D != 2; ++D)
      BackKill[D].assign(NumLoops, BitRow(Words, 0));
    for (auto [L, F] : BackKillReach)
      rowSetBit(BackKill[Reach][L], F);
    for (auto [L, F] : BackKillReach)
      rowSetBit(BackKill[Avail][L], F);
    for (auto [L, F] : BackKillAvail)
      rowSetBit(BackKill[Avail][L], F);

    // Scope: a fact exists only at nodes whose loop chain the placement's
    // chain prefixes — outside it the descriptor's variables are unbound.
    // That region is exactly the body of the placement's innermost loop
    // (the prefix is that loop's ancestor path), so build one row per loop
    // — its own facts plus every ancestor's — and point nodes at them.
    TopScope.assign(Words, 0);
    std::vector<BitRow> LoopOwn(NumLoops, BitRow(Words, 0));
    for (int FI = 0; FI != NumFacts; ++FI) {
      const Fact &F = Facts[FI];
      if (!F.Placed)
        continue;
      const std::vector<int> &PC =
          chainOf(Plan.Groups[F.GroupId].Placement.Node);
      if (PC.empty())
        rowSetBit(TopScope, FI);
      else
        rowSetBit(LoopOwn[PC.back()], FI);
    }
    LoopScope.assign(NumLoops, TopScope);
    for (int L = 0; L != NumLoops; ++L)
      for (int C = L; C >= 0; C = G.loop(C).Parent)
        rowOr(LoopScope[L], LoopOwn[C]);
    ScopeOf.assign(N, &TopScope);
    for (int Node = 0; Node != N; ++Node)
      if (int L = G.loopOf(Node); L >= 0)
        ScopeOf[Node] = &LoopScope[L];

    for (auto &NodeEvents : Events)
      std::sort(NodeEvents.begin(), NodeEvents.end(),
                [](const Event &A, const Event &B) {
                  if (A.Pos != B.Pos)
                    return A.Pos < B.Pos;
                  if (A.IsKill != B.IsKill)
                    return !A.IsKill;
                  return A.FactId < B.FactId;
                });
  }

  // --- The fixed point ------------------------------------------------------

  void transfer(uint64_t *Row, int Node, int Dom) const {
    for (const Event &Ev : Events[Node]) {
      uint64_t Bit = uint64_t(1) << (Ev.FactId & 63);
      if (!Ev.IsKill)
        Row[Ev.FactId >> 6] |= Bit;
      else if (Dom == Avail)
        Row[Ev.FactId >> 6] &= ~Bit;
    }
  }

  /// The facts the edge \p P -> \p Node kills: a loop's back edge kills
  /// that loop's BackKill row; any other edge kills nothing (null).
  const uint64_t *edgeKill(int P, int Node, int Dom) const {
    int HL = HeaderLoop[Node];
    if (HL < 0 || P == Ctx.G.loop(HL).Preheader)
      return nullptr;
    return BackKill[Dom][HL].data();
  }

  void computeIn(uint64_t *Row, int Node, int Dom) const {
    const Cfg &G = Ctx.G;
    const std::vector<int> &Preds = G.node(Node).Preds;
    // ENTRY has no incoming facts; an unreachable node claims nothing.
    if (Node == G.entry() || Preds.empty()) {
      std::fill(Row, Row + Words, 0);
      return;
    }
    std::fill(Row, Row + Words, ~uint64_t(0));
    for (int P : Preds) {
      const uint64_t *O = outRow(Dom, P);
      if (const uint64_t *Kill = edgeKill(P, Node, Dom)) {
        for (int W = 0; W != Words; ++W)
          Row[W] &= O[W] & ~Kill[W];
      } else {
        for (int W = 0; W != Words; ++W)
          Row[W] &= O[W];
      }
    }
    const uint64_t *Scope = ScopeOf[Node]->data();
    for (int W = 0; W != Words; ++W)
      Row[W] &= Scope[W];
  }

  /// Iterates each domain to its own fixed point in reverse post-order; the
  /// domains never read each other's rows.
  void solve() {
    size_t Cells = static_cast<size_t>(Ctx.G.numNodes()) * Words;
    std::vector<uint64_t> Row(Words);
    for (int D = 0; D != 2; ++D) {
      Out[D].assign(Cells, ~uint64_t(0)); // TOP: the meet only removes facts.
      bool Changed = true;
      while (Changed) {
        Changed = false;
        for (int Node : Rpo) {
          computeIn(Row.data(), Node, D);
          size_t At = static_cast<size_t>(Node) * Words;
          transfer(Row.data(), Node, D);
          if (!std::equal(Row.begin(), Row.end(), Out[D].begin() + At)) {
            std::copy(Row.begin(), Row.end(), Out[D].begin() + At);
            Changed = true;
          }
        }
      }
    }
  }

  /// One bit of the In row of \p Node: computeIn's meet for fact \p FactId
  /// alone. A node the fixed point never visited (unreachable) claims
  /// nothing.
  bool inBit(int FactId, int Node, int Dom) const {
    const Cfg &G = Ctx.G;
    const std::vector<int> &Preds = G.node(Node).Preds;
    if (RpoIndex[Node] < 0 || Node == G.entry() || Preds.empty())
      return false;
    int W = FactId >> 6;
    uint64_t Bit = uint64_t(1) << (FactId & 63);
    for (int P : Preds) {
      const uint64_t *Kill = edgeKill(P, Node, Dom);
      if (!(outRow(Dom, P)[W] & Bit) || (Kill && (Kill[W] & Bit)))
        return false;
    }
    return (*ScopeOf[Node])[W] & Bit;
  }

  /// Is fact \p FactId in domain \p Dom at program point \p At?
  bool query(int FactId, const Slot &At, int Dom) const {
    if (!validSlot(Ctx.G, At))
      return false;
    bool Bit = inBit(FactId, At.Node, Dom);
    for (const Event &Ev : Events[At.Node]) {
      if (Ev.Pos > At.Index || (Ev.Pos == At.Index && Ev.IsKill))
        break; // A GEN at the query point itself still serves the use.
      if (Ev.FactId != FactId)
        continue;
      Bit = Ev.IsKill ? (Dom == Avail ? false : Bit) : true;
    }
    return Bit;
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
      if (query(FactId, F.QueryPoint, Avail))
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
      } else if (query(FactId, F.QueryPoint, Reach)) {
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
      if (query(SubFact, Facts[RedFact].QueryPoint, Avail))
        continue;
      const Fact &SF = Facts[SubFact];
      Report.Violations.push_back(
          {VerifyRule::AvailRedundancy, Red.Id, Red.GroupId, locOf(Red),
           strFormat("entry %d sends only a remainder, but subsumer entry "
                     "%d's section %s is not available at the reduced use",
                     Red.Id, Ev.OtherId,
                     SF.Needed.str(&Ctx.R.loopVarNames()).c_str())});
    }
  }

  // --- Partially-dead communication (the [dead-comm] lint base) -------------

  bool groupPartiallyDead(const CommGroup &Grp) const {
    const Cfg &G = Ctx.G;
    if (Grp.Kind == CommKind::Reduce || !validSlot(G, Grp.Placement))
      return false;
    // Consumption points: the slot before every served use.
    int N = static_cast<int>(G.numNodes());
    std::vector<std::vector<int>> Consume(N);
    auto addUses = [&](const std::vector<int> &Ids) {
      for (int Id : Ids) {
        if (Id < 0 || Id >= static_cast<int>(Plan.Entries.size()))
          continue;
        const CommEntry &E = Plan.Entries[Id];
        if (!E.UseStmt)
          continue;
        Slot S = G.slotBefore(E.UseStmt);
        Consume[S.Node].push_back(S.Index);
      }
    };
    addUses(Grp.Members);
    addUses(Grp.Attached);

    // DFS for a path placement -> EXIT that passes no consumption point.
    // Zero-trip preheader->postexit edges are not taken, and a header
    // entered from its preheader must run the body once (exit allowed only
    // when re-entered over the back edge) — otherwise every loop-hoisted
    // communication would be "dead" along the skip-the-loop path and the
    // lint would be pure noise.
    std::vector<char> Visited(static_cast<size_t>(N) * 2, 0);
    struct State {
      int Node;
      int StartIdx;
      bool FromBack;
    };
    std::vector<State> Stack;
    Stack.push_back({Grp.Placement.Node, Grp.Placement.Index, false});
    while (!Stack.empty()) {
      State S = Stack.back();
      Stack.pop_back();
      size_t VKey = static_cast<size_t>(S.Node) * 2 + (S.FromBack ? 1 : 0);
      if (Visited[VKey])
        continue;
      Visited[VKey] = 1;
      bool Consumed = false;
      for (int Idx : Consume[S.Node])
        if (Idx >= S.StartIdx) {
          Consumed = true;
          break;
        }
      if (Consumed)
        continue;
      if (S.Node == G.exit())
        return true; // Reached EXIT without any use reading the data.
      int HL = HeaderLoop[S.Node];
      for (int Succ : G.node(S.Node).Succs) {
        // A preheader's postexit successor is exactly its loop's zero-trip
        // edge.
        if (G.node(S.Node).Kind == NodeKind::Preheader &&
            G.node(Succ).Kind == NodeKind::Postexit)
          continue;
        if (HL >= 0 && !S.FromBack && Succ == G.loop(HL).Postexit)
          continue; // First entry must iterate at least once.
        bool NextFromBack = false;
        int SuccHL = HeaderLoop[Succ];
        if (SuccHL >= 0 && S.Node != G.loop(SuccHL).Preheader)
          NextFromBack = true;
        Stack.push_back({Succ, 0, NextFromBack});
      }
    }
    return false;
  }
};

AvailDataflow::AvailDataflow(const AnalysisContext &Ctx, const CommPlan &Plan)
    : I(new Impl(Ctx, Plan)) {}

AvailDataflow::~AvailDataflow() = default;

void AvailDataflow::check(VerifyReport &Report) const { I->check(Report); }

int AvailDataflow::numFacts() const {
  return static_cast<int>(I->Facts.size());
}

std::vector<int> AvailDataflow::partiallyDeadGroups() const {
  std::vector<int> Out;
  for (const CommGroup &Grp : I->Plan.Groups)
    if (I->groupPartiallyDead(Grp))
      Out.push_back(Grp.Id);
  return Out;
}

VerifyReport gca::verifyPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                             const PlacementOptions &Opts,
                             DiagEngine *Diags) {
  VerifyReport Report;
  Report.Strat = Plan.Strat;
  verifyIr(Ctx.R, Ctx.G, Ctx.S, Report);
  verifyPlanIntegrity(Ctx, Plan, Report);
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
