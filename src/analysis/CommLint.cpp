//===- analysis/CommLint.cpp - Communication lint rules -------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "analysis/CommLint.h"

#include "support/StrUtil.h"

#include <cstdint>
#include <functional>
#include <set>

using namespace gca;

namespace {

/// A conservative constant range of an affine expression.
struct ValueRange {
  bool Known = false;
  int64_t Min = 0;
  int64_t Max = 0;
};

class Linter {
public:
  Linter(const AnalysisContext &Ctx, const CommPlan &Plan,
         std::optional<int> OrigGroups, DiagEngine &Diags)
      : Ctx(Ctx), Plan(Plan), OrigGroups(OrigGroups), Diags(Diags) {}

  int run() {
    checkUndistributedInDistributedLoop();
    checkInnermostComm();
    checkSubscriptRanges();
    checkUnusedArrays();
    checkNoCommBenefit();
    checkDeadComm();
    return NumWarnings;
  }

private:
  void warn(SourceLoc Loc, const std::string &Msg) {
    Diags.warning(Loc, "%s", Msg.c_str());
    ++NumWarnings;
  }

  /// Every array reference of \p S (LHS first, then RHS terms).
  static std::vector<const ArrayRef *> refsOf(const AssignStmt *S) {
    std::vector<const ArrayRef *> Refs;
    if (!S->lhsIsScalar())
      Refs.push_back(&S->lhs());
    for (const RhsTerm &T : S->rhs())
      if (T.isArrayLike())
        Refs.push_back(&T.Ref);
    return Refs;
  }

  /// Visits every assignment of the routine in source order.
  void forEachAssign(const std::function<void(const AssignStmt *)> &Fn) {
    Ctx.R.forEachStmt([&](Stmt *S) {
      if (const auto *A = dyn_cast<AssignStmt>(S))
        Fn(A);
    });
  }

  // --- [undistributed-array] -------------------------------------------------

  /// A loop is "distributed" when some assignment it encloses writes a
  /// distributed array dimension subscripted by the loop's variable — its
  /// iterations are spread across processors under owner-computes.
  std::set<int> distributedLoops() {
    std::set<int> Out;
    forEachAssign([&](const AssignStmt *S) {
      if (S->lhsIsScalar())
        return;
      const ArrayRef &Lhs = S->lhs();
      const ArrayDecl &A = Ctx.R.array(Lhs.ArrayId);
      for (unsigned D = 0; D < Lhs.Subs.size() && D < A.Dist.size(); ++D) {
        if (A.Dist[D] == DistKind::Star)
          continue;
        for (int Var : Lhs.Subs[D].Lo.vars())
          if (const LoopStmt *L = Ctx.varLoop(Var))
            Out.insert(Ctx.G.loopIdOf(L));
      }
    });
    return Out;
  }

  void checkUndistributedInDistributedLoop() {
    std::set<int> DistLoops = distributedLoops();
    if (DistLoops.empty())
      return;
    std::set<std::pair<int, int>> Reported; // (stmt, array)
    forEachAssign([&](const AssignStmt *S) {
      int InnermostDist = -1;
      for (int LoopId : Ctx.G.loopNestOf(S))
        if (DistLoops.count(LoopId))
          InnermostDist = LoopId;
      if (InnermostDist < 0)
        return;
      const std::string &LoopVar =
          Ctx.R.loopVarName(Ctx.G.loop(InnermostDist).L->var());
      for (const ArrayRef *Ref : refsOf(S)) {
        const ArrayDecl &A = Ctx.R.array(Ref->ArrayId);
        if (A.isDistributed() ||
            !Reported.insert({S->id(), Ref->ArrayId}).second)
          continue;
        warn(Ref->Loc.isValid() ? Ref->Loc : S->loc(),
             strFormat("undistributed array '%s' referenced inside "
                       "distributed loop '%s'; the access is replicated on "
                       "every processor [undistributed-array]",
                       A.Name.c_str(), LoopVar.c_str()));
      }
    });
  }

  // --- [innermost-comm] ------------------------------------------------------

  /// The definition whose dependence pins entry \p E at its CommLevel, for
  /// the diagnostic; \p Innermost is the use's innermost loop and CommLevel
  /// is at least its depth. Prefers the def Earliest(u) stopped at.
  const AssignStmt *blockingDef(const CommEntry &E, int Innermost) {
    if (E.EarliestDef >= 0) {
      const SsaDef &D = Ctx.S.def(E.EarliestDef);
      if (D.Kind == DefKind::Regular)
        return D.Stmt;
    }
    // DepLevel never exceeds the common nesting level, so only a def inside
    // the innermost loop can reach CommLevel. Its regular defs there, in
    // program order (the id order).
    for (int DefId : Ctx.S.arrayDefsInLoop(E.ArrayId, Innermost)) {
      const AssignStmt *Def = Ctx.S.def(DefId).Stmt;
      for (const ArrayRef &Ref : E.Refs)
        if (Ctx.Dep.depLevel(Def, E.UseStmt, Ref) >= E.CommLevel)
          return Def;
    }
    return nullptr;
  }

  void checkInnermostComm() {
    for (const CommEntry &E : Plan.Entries) {
      if (E.Eliminated || E.M.Kind == CommKind::Reduce)
        continue;
      const std::vector<int> &Nest = Ctx.G.loopNestOf(E.UseStmt);
      if (Nest.empty() || E.CommLevel < static_cast<int>(Nest.size()))
        continue;
      SourceLoc Loc =
          !E.Refs.empty() && E.Refs[0].Loc.isValid() ? E.Refs[0].Loc
                                                     : E.UseStmt->loc();
      const AssignStmt *Def = blockingDef(E, Nest.back());
      std::string Blocker =
          Def ? strFormat("the definition at %s", Def->loc().str().c_str())
              : std::string("a dependence");
      warn(Loc, strFormat("communication for '%s' cannot be vectorized: %s "
                          "pins it inside the innermost loop '%s' "
                          "[innermost-comm]",
                          Ctx.R.array(E.ArrayId).Name.c_str(),
                          Blocker.c_str(),
                          Ctx.R.loopVarName(Ctx.G.loop(Nest.back()).L->var())
                              .c_str()));
    }
  }

  // --- [subscript-out-of-range] ----------------------------------------------

  /// Range of \p E under the loop-variable ranges in \p Env.
  bool evalRange(const AffineExpr &E, const std::vector<ValueRange> &Env,
                 int64_t &Min, int64_t &Max) {
    Min = Max = E.constPart();
    for (int Var : E.vars()) {
      if (Var >= static_cast<int>(Env.size()) || !Env[Var].Known)
        return false;
      int64_t C = E.coeff(Var);
      Min += C * (C > 0 ? Env[Var].Min : Env[Var].Max);
      Max += C * (C > 0 ? Env[Var].Max : Env[Var].Min);
    }
    return true;
  }

  void checkSubscript(const ArrayRef &Ref, unsigned Dim,
                      const std::vector<ValueRange> &Env) {
    const ArrayDecl &A = Ctx.R.array(Ref.ArrayId);
    if (Dim >= A.rank())
      return;
    const Subscript &Sub = Ref.Subs[Dim];
    int64_t LoMin, LoMax, HiMin, HiMax;
    if (!evalRange(Sub.Lo, Env, LoMin, LoMax))
      return;
    HiMin = LoMin;
    HiMax = LoMax;
    if (Sub.isRange() && !evalRange(Sub.Hi, Env, HiMin, HiMax))
      return;
    if (Sub.isRange() && HiMax < LoMin)
      return; // Provably empty section: nothing is accessed.
    if (LoMin >= A.Lo[Dim] && HiMax <= A.Hi[Dim])
      return;
    int64_t Reach = LoMin < A.Lo[Dim] ? LoMin : HiMax;
    warn(Ref.Loc, strFormat("subscript %u of '%s' can reach %lld, outside "
                            "the declared bounds %lld:%lld "
                            "[subscript-out-of-range]",
                            Dim + 1, A.Name.c_str(),
                            static_cast<long long>(Reach),
                            static_cast<long long>(A.Lo[Dim]),
                            static_cast<long long>(A.Hi[Dim])));
  }

  void checkSubscriptRanges() {
    std::vector<ValueRange> Env(Ctx.R.loopVarNames().size());
    std::function<void(const std::vector<Stmt *> &)> Walk =
        [&](const std::vector<Stmt *> &Body) {
          for (Stmt *S : Body) {
            if (const auto *A = dyn_cast<AssignStmt>(S)) {
              for (const ArrayRef *Ref : refsOf(A))
                for (unsigned D = 0; D < Ref->Subs.size(); ++D)
                  checkSubscript(*Ref, D, Env);
            } else if (auto *L = dyn_cast<LoopStmt>(S)) {
              int64_t LoMin = 0, LoMax = 0, HiMin = 0, HiMax = 0;
              bool Known = evalRange(L->lo(), Env, LoMin, LoMax) &&
                           evalRange(L->hi(), Env, HiMin, HiMax);
              if (Known && L->step() > 0 && LoMin > HiMax)
                continue; // Provably zero-trip: the body never runs.
              ValueRange Saved =
                  L->var() < static_cast<int>(Env.size())
                      ? Env[L->var()]
                      : ValueRange();
              if (L->var() < static_cast<int>(Env.size())) {
                ValueRange &R = Env[L->var()];
                R.Known = Known;
                R.Min = L->step() > 0 ? LoMin : HiMin;
                R.Max = L->step() > 0 ? HiMax : LoMax;
              }
              Walk(L->body());
              if (L->var() < static_cast<int>(Env.size()))
                Env[L->var()] = Saved;
            } else if (auto *I = dyn_cast<IfStmt>(S)) {
              Walk(I->thenBody());
              Walk(I->elseBody());
            }
          }
        };
    Walk(Ctx.R.body());
  }

  // --- [unused-array] ----------------------------------------------------------

  void checkUnusedArrays() {
    std::vector<bool> Used(Ctx.R.arrays().size(), false);
    forEachAssign([&](const AssignStmt *S) {
      for (const ArrayRef *Ref : refsOf(S))
        Used[Ref->ArrayId] = true;
    });
    for (const ArrayDecl &A : Ctx.R.arrays())
      if (!Used[A.Id])
        warn(SourceLoc(),
             strFormat("array '%s' is declared but never referenced "
                       "[unused-array]",
                       A.Name.c_str()));
  }

  // --- [no-comm-benefit] --------------------------------------------------------

  void checkNoCommBenefit() {
    if (!OrigGroups || Plan.Strat == Strategy::Orig || Plan.Entries.empty())
      return;
    if (Plan.Stats.NumEliminated > 0 ||
        Plan.Stats.totalGroups() < *OrigGroups)
      return;
    warn(SourceLoc(),
         strFormat("global placement found no improvement over message "
                   "vectorization in '%s' (%d messages either way); "
                   "consider restructuring its loops [no-comm-benefit]",
                   Ctx.R.name().c_str(), Plan.Stats.totalGroups()));
  }

  // --- [dead-comm] --------------------------------------------------------------

  /// The loop \p Node heads, or -1 when it is no loop header.
  int headedLoop(int Node) const {
    return Ctx.G.node(Node).Kind == NodeKind::Header ? Ctx.G.loopOf(Node) : -1;
  }

  /// Is there a genuine (at-least-one-iteration) path from \p Grp's
  /// placement to EXIT on which no served use reads the data? The walk
  /// reads only the CFG and the plan. Its per-node tables are allocated
  /// once per routine and belong to the group whose walk stamped them with
  /// the current epoch: the last consumption index in each node, and two
  /// visited bits per node (entered from outside, or over a back edge).
  bool partiallyDead(const CommGroup &Grp) {
    const Cfg &G = Ctx.G;
    const Slot &P = Grp.Placement;
    if (Grp.Kind == CommKind::Reduce || P.Node < 0 ||
        P.Node >= static_cast<int>(G.numNodes()) || P.Index < 0 ||
        P.Index > static_cast<int>(G.node(P.Node).Stmts.size()))
      return false;
    ++Epoch;
    // Consumption points: the slot before every served use. A node consumes
    // the data from index I on when its last consumption index is >= I.
    auto addUses = [&](const std::vector<int> &Ids) {
      for (int Id : Ids) {
        if (Id < 0 || Id >= static_cast<int>(Plan.Entries.size()))
          continue;
        const CommEntry &E = Plan.Entries[Id];
        if (!E.UseStmt)
          continue;
        Slot S = G.slotBefore(E.UseStmt);
        if (ConsumeEpoch[S.Node] != Epoch || LastConsume[S.Node] < S.Index) {
          ConsumeEpoch[S.Node] = Epoch;
          LastConsume[S.Node] = S.Index;
        }
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
    Stack.clear();
    Stack.push_back({P.Node, P.Index, false});
    while (!Stack.empty()) {
      WalkState S = Stack.back();
      Stack.pop_back();
      uint32_t &Seen = VisitEpoch[static_cast<size_t>(S.Node) * 2 + S.FromBack];
      if (Seen == Epoch)
        continue;
      Seen = Epoch;
      if (ConsumeEpoch[S.Node] == Epoch && LastConsume[S.Node] >= S.StartIdx)
        continue;
      if (S.Node == G.exit())
        return true; // Reached EXIT without any use reading the data.
      int HL = headedLoop(S.Node);
      for (int Succ : G.node(S.Node).Succs) {
        // A preheader's postexit successor is exactly its loop's zero-trip
        // edge.
        if (G.node(S.Node).Kind == NodeKind::Preheader &&
            G.node(Succ).Kind == NodeKind::Postexit)
          continue;
        if (HL >= 0 && !S.FromBack && Succ == G.loop(HL).Postexit)
          continue; // First entry must iterate at least once.
        int SuccHL = headedLoop(Succ);
        bool NextFromBack = SuccHL >= 0 && S.Node != G.loop(SuccHL).Preheader;
        Stack.push_back({Succ, 0, NextFromBack});
      }
    }
    return false;
  }

  /// Partially-dead communication: a group's message is paid for on some
  /// path from its placement to EXIT but never consumed there. Typically an
  /// IF arm that branches around every use of the communicated section.
  void checkDeadComm() {
    if (Plan.Groups.empty())
      return;
    size_t N = Ctx.G.numNodes();
    ConsumeEpoch.assign(N, 0);
    LastConsume.assign(N, 0);
    VisitEpoch.assign(2 * N, 0);
    for (const CommGroup &G : Plan.Groups) {
      if (!partiallyDead(G))
        continue;
      // Cite the first member's use so the warning lands on user code.
      SourceLoc Loc;
      std::string Array = "?";
      if (!G.Members.empty()) {
        const CommEntry &E = Plan.Entries[G.Members[0]];
        Array = Ctx.R.array(E.ArrayId).Name;
        if (!E.Refs.empty() && E.Refs[0].Loc.isValid())
          Loc = E.Refs[0].Loc;
        else if (E.UseStmt)
          Loc = E.UseStmt->loc();
      }
      // Name the group, its direction and its slot: sibling axis phases of
      // one diagonal reference share the array and the use.
      warn(Loc, strFormat("communication for '%s' (group %d, %s at (B%d,%d)) "
                          "is partially dead: some path from its placement "
                          "reaches the routine exit without reading the "
                          "data; consider sinking it into the branch that "
                          "uses it [dead-comm]",
                          Array.c_str(), G.Id, G.M.str().c_str(),
                          G.Placement.Node, G.Placement.Index));
    }
  }

  const AnalysisContext &Ctx;
  const CommPlan &Plan;
  std::optional<int> OrigGroups;
  DiagEngine &Diags;
  int NumWarnings = 0;

  /// The [dead-comm] walk's scratch (see partiallyDead).
  struct WalkState {
    int Node;
    int StartIdx;
    bool FromBack;
  };
  std::vector<WalkState> Stack;
  std::vector<uint32_t> ConsumeEpoch, VisitEpoch;
  std::vector<int> LastConsume;
  uint32_t Epoch = 0;
};

} // namespace

int gca::lintRoutine(const AnalysisContext &Ctx, const CommPlan &Plan,
                     std::optional<int> OrigGroups, DiagEngine &Diags) {
  return Linter(Ctx, Plan, OrigGroups, Diags).run();
}
