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
#include <utility>

using namespace gca;

namespace {

bool validSlot(const Cfg &G, const Slot &S) {
  return S.Node >= 0 && S.Node < static_cast<int>(G.numNodes()) &&
         S.Index >= 0 &&
         S.Index <= static_cast<int>(G.node(S.Node).Stmts.size());
}

/// The kill that ended a failed walk, for the violation message.
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
  int PlaceLoop = -1;     ///< The placement's innermost loop, or -1.
};

/// The availability facts of one plan over one routine's CFG, and the
/// checks that query them, one backward walk per query.
class AvailChecker {
public:
  AvailChecker(const AnalysisContext &Ctx, const CommPlan &Plan)
      : Ctx(Ctx), Plan(Plan) {
    const Cfg &G = Ctx.G;
    int MaxLevel = 0;
    for (unsigned L = 0; L != G.numLoops(); ++L)
      MaxLevel = std::max(MaxLevel, G.loop(static_cast<int>(L)).Level);
    LevelWords = static_cast<size_t>(MaxLevel) / 64 + 1;
    DepFact.assign(Ctx.S.numDefs(), -1);
    DepBits.resize(Ctx.S.numDefs() * LevelWords);
    Seen.assign(G.numNodes(), 0);
    markReachable();
    buildFacts();
  }

  void check(VerifyReport &Report);

private:
  const AnalysisContext &Ctx;
  const CommPlan &Plan;

  std::vector<Fact> Facts;
  std::vector<int> FactOfEntry; ///< Entry id -> fact id (-1).
  /// Node -> reachable from ENTRY. Marked here rather than read off the
  /// dominator tree, which the placer shares.
  std::vector<char> Reachable;

  /// Per def id, the dependence summary of the last fact tested against
  /// it: DepFact holds that fact's entry id (-1 none), and the def's
  /// LevelWords words of DepBits its dependence levels (dependsAt).
  std::vector<int> DepFact;
  std::vector<uint64_t> DepBits;
  size_t LevelWords = 0;
  DepDirs Dirs;

  /// The walk's state, allocated once per routine: a node belongs to the
  /// current walk when its Seen entry equals Epoch.
  std::vector<uint32_t> Seen;
  uint32_t Epoch = 0;
  std::vector<int> Pending;
  Killer LastKill;
  int64_t WalkNodes = 0;
  int64_t DepTests = 0;

  void markReachable() {
    const Cfg &G = Ctx.G;
    Reachable.assign(G.numNodes(), 0);
    Reachable[G.entry()] = 1;
    Pending.assign(1, G.entry());
    while (!Pending.empty()) {
      int Node = Pending.back();
      Pending.pop_back();
      for (int S : G.node(Node).Succs)
        if (!Reachable[S]) {
          Reachable[S] = 1;
          Pending.push_back(S);
        }
    }
  }

  /// Is loop \p Inner loop \p L or inside it? -1 is the top level, which
  /// no loop encloses.
  bool encloses(int L, int Inner) const {
    int Level = Ctx.G.loop(L).Level;
    while (Inner >= 0 && Ctx.G.loop(Inner).Level > Level)
      Inner = Ctx.G.loop(Inner).Parent;
    return Inner == L;
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
    FactOfEntry.assign(Plan.Entries.size(), -1);
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
      }

      FactOfEntry[E.Id] = static_cast<int>(Facts.size());
      Facts.push_back(std::move(F));
    }
  }

  // --- Dependence kills -----------------------------------------------------
  //
  // Kills mirror IsArrayDep feasibility (Figure 8(d)): a definition of the
  // array with a feasible loop-independent flow dependence into the entry's
  // use kills right after it executes, and one with a dependence carried at
  // level L kills on the back edge of the level-L loop of the use's nest. A
  // communication legally placed at that loop's header top survives: the
  // header GEN re-fires before the killed value would be read. The walk
  // tests only the definitions on the nodes and back edges it crosses.

  /// Does def \p DefId have a flow dependence into fact \p F's use at
  /// \p Level: loop-independent at 0, else carried at that level? The first
  /// question about a (fact, def) pair runs one dependence test per
  /// reference of the fact's entry and keeps every level's answer.
  bool dependsAt(const Fact &F, int DefId, int Level) {
    uint64_t *Bits = DepBits.data() + DefId * LevelWords;
    if (DepFact[DefId] != F.EntryId) {
      DepFact[DefId] = F.EntryId;
      std::fill(Bits, Bits + LevelWords, 0);
      const CommEntry &E = Plan.Entries[F.EntryId];
      const AssignStmt *Def = Ctx.S.def(DefId).Stmt;
      for (const ArrayRef &Ref : E.Refs) {
        ++DepTests;
        Ctx.Dep.flowDirections(Def, E.UseStmt, Ref, Dirs);
        if (DepTester::loopIndependentFromDirs(Dirs))
          Bits[0] |= 1;
        for (int L = 1; L <= Dirs.CNL; ++L)
          if (DepTester::carriedFromDirs(Dirs, L))
            Bits[L / 64] |= uint64_t(1) << (L % 64);
      }
    }
    return (Bits[Level / 64] >> (Level % 64)) & 1;
  }

  /// Does statement \p S define fact \p F's array with a loop-independent
  /// flow dependence into its use? Records the kill when it does.
  bool killsHere(const Fact &F, const AssignStmt *S) {
    if (S->lhsIsScalar() ||
        S->lhs().ArrayId != Plan.Entries[F.EntryId].ArrayId ||
        !dependsAt(F, Ctx.S.defOfStmt(S), 0))
      return false;
    LastKill = {S, 0};
    return true;
  }

  /// Is loop \p L a loop of fact \p F's use nest that carries a dependence
  /// from one of the array's defs inside it? Records the first such def in
  /// program order.
  bool carriedKill(const Fact &F, int L) {
    const CommEntry &E = Plan.Entries[F.EntryId];
    const std::vector<int> &UseNest = Ctx.G.loopNestOf(E.UseStmt);
    int Level = Ctx.G.loop(L).Level;
    if (Level > static_cast<int>(UseNest.size()) || UseNest[Level - 1] != L)
      return false;
    for (int DefId : Ctx.S.arrayDefsInLoop(E.ArrayId, L))
      if (dependsAt(F, DefId, Level)) {
        LastKill = {Ctx.S.def(DefId).Stmt, Level};
        return true;
      }
    return false;
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

  /// The fact's last event in \p Node before slot index \p Index: 1 the
  /// GEN, 0 a kill, -1 none. Events run in slot order: a communication at
  /// slot p fires before statement p executes, so a GEN at p precedes the
  /// kill of statement p, which precedes a GEN at p + 1. A GEN at \p Index
  /// counts and a kill there does not, and kills count only when \p Fresh.
  int lastEvent(const Fact &F, int Node, int Index, bool Fresh) {
    const std::vector<const AssignStmt *> &Stmts = Ctx.G.node(Node).Stmts;
    const Slot &P = Plan.Groups[F.GroupId].Placement;
    int Gen = P.Node == Node && P.Index <= Index ? P.Index : -1;
    if (Fresh)
      for (int I = std::min(Index, static_cast<int>(Stmts.size())) - 1;
           I >= std::max(Gen, 0); --I)
        if (killsHere(F, Stmts[I]))
          return 0;
    return Gen >= 0 ? 1 : -1;
  }

  /// The local part of \p Node's In: false when no path can carry the fact
  /// into \p Node, else pushes its unvisited predecessors. A back edge into
  /// the header of loop L kills the fact when L encloses the placement (the
  /// descriptor names other elements each iteration; the placement re-GENs
  /// before any use of the next one) and, when \p Fresh, when L carries one
  /// of the fact's dependences. An unreachable predecessor imposes nothing.
  bool pushPreds(const Fact &F, int Node, bool Fresh) {
    const Cfg &G = Ctx.G;
    const std::vector<int> &Preds = G.node(Node).Preds;
    if (Node == G.entry() || Preds.empty())
      return false;
    if (F.PlaceLoop >= 0 && !encloses(F.PlaceLoop, G.loopOf(Node)))
      return false;
    int HL = G.node(Node).Kind == NodeKind::Header ? G.loopOf(Node) : -1;
    bool KilledOnBackEdge =
        HL >= 0 &&
        (encloses(HL, F.PlaceLoop) || (Fresh && carriedKill(F, HL)));
    for (int P : Preds) {
      if (KilledOnBackEdge && P != G.loop(HL).Preheader)
        return false;
      if (!Reachable[P] || Seen[P] == Epoch)
        continue;
      Seen[P] = Epoch;
      Pending.push_back(P);
    }
    return true;
  }

  /// Is fact \p FactId available at \p At? With \p Fresh the dependence
  /// kills count (the avail domain: fired on every path and still fresh);
  /// without, only GEN and the structural kills do (the reach domain: fired
  /// on every path), which is asked only to classify a failed query. A walk
  /// that fails on a kill leaves it in LastKill.
  bool available(int FactId, const Slot &At, bool Fresh) {
    const Fact &F = Facts[FactId];
    if (!F.Generated || !validSlot(Ctx.G, At))
      return false; // No GEN anywhere: no path is covered.
    LastKill = {};
    if (int State = lastEvent(F, At.Node, At.Index, Fresh); State >= 0)
      return State == 1;
    if (!Reachable[At.Node])
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

  // --- Messages -------------------------------------------------------------

  std::string slotStr(const Slot &S) const {
    return strFormat("(B%d,%d)", S.Node, S.Index);
  }

  SourceLoc locOf(const CommEntry &E) const {
    if (!E.Refs.empty() && E.Refs[0].Loc.isValid())
      return E.Refs[0].Loc;
    return E.UseStmt ? E.UseStmt->loc() : SourceLoc();
  }

  static std::string killerStr(const Killer &K) {
    if (!K.Def)
      return "";
    std::string Loc =
        K.Def->loc().isValid() ? K.Def->loc().str() : "<unknown>";
    if (K.Level == 0)
      return strFormat(" (definition at %s can execute after it)",
                       Loc.c_str());
    return strFormat(" (the level-%d loop carries a dependence from the "
                     "definition at %s across iterations)",
                     K.Level, Loc.c_str());
  }
};

void AvailChecker::check(VerifyReport &Report) {
  Report.Facts += static_cast<int>(Facts.size());
  for (int FactId = 0, NF = static_cast<int>(Facts.size()); FactId != NF;
       ++FactId) {
    const Fact &F = Facts[FactId];
    ++Report.Checks;
    const CommEntry &E = Plan.Entries[F.EntryId];
    if (available(FactId, F.QueryPoint, true))
      continue;
    Killer Stale = LastKill;
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
                      slotStr(P).c_str(), killerStr(Stale).c_str());
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
  Report.WalkNodes += WalkNodes;
  Report.DepTests += DepTests;
}

} // namespace

VerifyReport gca::verifyPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                             const PlacementOptions &Opts,
                             DiagEngine *Diags) {
  VerifyReport Report;
  Report.Strat = Plan.Strat;
  verifyIr(Ctx.R, Ctx.G, Ctx.S, Report);
  verifyPlanIntegrity(Ctx, Plan, Report);
  verifyCombineLegality(Ctx, Plan, Opts, Report);
  AvailChecker(Ctx, Plan).check(Report);
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
