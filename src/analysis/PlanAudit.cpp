//===- analysis/PlanAudit.cpp - Static communication plan auditor ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "analysis/PlanAudit.h"

#include "core/Detect.h"
#include "support/Stats.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>

using namespace gca;

const char *gca::auditRuleName(AuditRule Rule) {
  switch (Rule) {
  case AuditRule::Structure:
    return "structure";
  case AuditRule::PlacementRange:
    return "placement-range";
  case AuditRule::InterveningDef:
    return "intervening-def";
  case AuditRule::SubsetCoverage:
    return "subset-coverage";
  case AuditRule::RedundancyAvail:
    return "redundancy-availability";
  case AuditRule::CombineLegality:
    return "combine-legality";
  }
  return "?";
}

std::string AuditViolation::str() const {
  std::string Out = strFormat("%s(entry=%d,group=%d)", auditRuleName(Rule),
                              EntryId, GroupId);
  if (Loc.isValid())
    Out += " @" + Loc.str();
  return Out + ": " + Message;
}

std::string AuditReport::str() const {
  std::string Out = strFormat(
      "audit[%s]: %s (%d entries, %d groups, %d violations)\n",
      strategyName(Strat), ok() ? "PASS" : "FAIL", EntriesChecked,
      GroupsChecked, static_cast<int>(Violations.size()));
  for (const AuditViolation &V : Violations)
    Out += "  " + V.str() + "\n";
  return Out;
}

std::string AuditReport::json() const {
  std::string Out = strFormat(
      "{\"ok\":%s,\"strategy\":\"%s\",\"entries\":%d,\"groups\":%d,"
      "\"violations\":[",
      ok() ? "true" : "false", strategyName(Strat), EntriesChecked,
      GroupsChecked);
  for (size_t I = 0; I != Violations.size(); ++I) {
    const AuditViolation &V = Violations[I];
    if (I)
      Out += ",";
    Out += strFormat("{\"rule\":\"%s\",\"entry\":%d,\"group\":%d,"
                     "\"line\":%d,\"col\":%d,\"message\":\"%s\"}",
                     auditRuleName(V.Rule), V.EntryId, V.GroupId, V.Loc.Line,
                     V.Loc.Col, jsonEscape(V.Message).c_str());
  }
  return Out + "]}";
}

namespace {

/// One auditor run over one plan.
class Auditor {
public:
  Auditor(const AnalysisContext &Ctx, const CommPlan &Plan,
          const PlacementOptions &Opts, DiagEngine *Diags)
      : Ctx(Ctx), Plan(Plan), Opts(Opts), Diags(Diags) {}

  AuditReport run() {
    Report.Strat = Plan.Strat;
    Report.EntriesChecked = static_cast<int>(Plan.Entries.size());
    Report.GroupsChecked = static_cast<int>(Plan.Groups.size());

    collectArrayDefs();
    computeBranchSignatures();
    // Sorted dense slot ids of every entry's original placement range, so
    // the per-member "is the group's slot a legal position" probe in
    // checkCombining is a binary search instead of a list scan.
    OrigCandIds.resize(Plan.Entries.size());
    for (const CommEntry &E : Plan.Entries) {
      for (const Slot &S : E.OriginalCandidates)
        OrigCandIds[E.Id].push_back(Ctx.G.slotId(S));
      std::sort(OrigCandIds[E.Id].begin(), OrigCandIds[E.Id].end());
    }

    checkStructure();
    DepDirs Dirs; // Subscript-solve scratch, reused across entries.
    for (const CommEntry &E : Plan.Entries) {
      const CommGroup *G = servingGroup(E);
      if (!G)
        continue; // Reported by structure / availability.
      checkPlacementRange(E, *G);
      checkInterveningDefs(E, *G, Dirs);
      checkCoverage(E, *G);
    }
    for (const CommGroup &G : Plan.Groups)
      checkCombining(G);
    return std::move(Report);
  }

private:
  // --- Reporting ------------------------------------------------------------

  /// Emits the diagnostic and records the violation in the report.
  void violate(AuditRule Rule, int EntryId, int GroupId, SourceLoc Loc,
               std::string Msg) {
    if (Diags)
      Diags->error(Loc, "plan audit [%s]: %s", auditRuleName(Rule),
                   Msg.c_str());
    Report.Violations.push_back({Rule, EntryId, GroupId, Loc, std::move(Msg)});
  }

  SourceLoc locOf(const CommEntry &E) const {
    if (!E.Refs.empty() && E.Refs[0].Loc.isValid())
      return E.Refs[0].Loc;
    return E.UseStmt->loc();
  }

  std::string arrayName(int Id) const { return Ctx.R.array(Id).Name; }

  std::string slotStr(const Slot &S) const {
    return strFormat("(B%d,%d)", S.Node, S.Index);
  }

  // --- Shared pre-computation ------------------------------------------------

  /// All regular SSA definitions, bucketed by array id.
  void collectArrayDefs() {
    ArrayDefs.assign(Ctx.R.arrays().size(), {});
    for (unsigned I = 0, E = Ctx.S.numDefs(); I != E; ++I) {
      const SsaDef &D = Ctx.S.def(static_cast<int>(I));
      if (D.Kind != DefKind::Regular || !Ctx.S.varIsArray(D.Var))
        continue;
      ArrayDefs[Ctx.S.arrayOfVar(D.Var)].push_back(D.Stmt);
    }
  }

  /// Branch signature of every statement: the (if-stmt id, branch index)
  /// pairs on its ancestor chain. Two statements lie on disjoint
  /// same-iteration paths iff they disagree on the branch of a shared IF.
  void computeBranchSignatures() {
    BranchSig.assign(Ctx.R.numStmts(), {});
    std::vector<std::pair<int, int>> Stack;
    std::function<void(const std::vector<Stmt *> &)> Walk =
        [&](const std::vector<Stmt *> &Body) {
          for (Stmt *S : Body) {
            BranchSig[S->id()] = Stack;
            if (auto *L = dyn_cast<LoopStmt>(S)) {
              Walk(L->body());
            } else if (auto *I = dyn_cast<IfStmt>(S)) {
              Stack.emplace_back(I->id(), 0);
              Walk(I->thenBody());
              Stack.back().second = 1;
              Walk(I->elseBody());
              Stack.pop_back();
            }
          }
        };
    Walk(Ctx.R.body());
  }

  /// True when \p A and \p B sit in different arms of some common IF (no
  /// single-iteration execution runs both).
  bool onDisjointBranches(const Stmt *A, const Stmt *B) const {
    for (const auto &[IfId, Arm] : BranchSig[A->id()])
      for (const auto &[IfId2, Arm2] : BranchSig[B->id()])
        if (IfId == IfId2 && Arm != Arm2)
          return true;
    return false;
  }

  /// The group that serves entry \p E's communication (its own group, or the
  /// group its SubsumedBy chain was attached to). Null, with a violation
  /// recorded, when the entry resolves nowhere.
  const CommGroup *servingGroup(const CommEntry &E) {
    if (E.GroupId < 0 || E.GroupId >= static_cast<int>(Plan.Groups.size())) {
      violate(E.Eliminated ? AuditRule::RedundancyAvail
                           : AuditRule::Structure,
              E.Id, E.GroupId, locOf(E),
              strFormat("entry %d (array '%s') is served by no group",
                        E.Id, arrayName(E.ArrayId).c_str()));
      return nullptr;
    }
    return &Plan.Groups[E.GroupId];
  }

  // --- Structure ------------------------------------------------------------

  void checkStructure() {
    std::vector<int> MemberOf(Plan.Entries.size(), -1);
    for (const CommGroup &G : Plan.Groups) {
      if (G.Id != static_cast<int>(&G - Plan.Groups.data()))
        violate(AuditRule::Structure, -1, G.Id, SourceLoc(),
                strFormat("group id %d does not match its index", G.Id));
      if (G.Members.empty())
        violate(AuditRule::Structure, -1, G.Id, SourceLoc(),
                strFormat("group %d has no members", G.Id));
      if (G.Data.size() != G.DataAug.size())
        violate(AuditRule::Structure, -1, G.Id, SourceLoc(),
                strFormat("group %d has %d data descriptors but %d "
                          "augmentation records",
                          G.Id, static_cast<int>(G.Data.size()),
                          static_cast<int>(G.DataAug.size())));
      for (int Id : G.Members) {
        const CommEntry &E = Plan.Entries[Id];
        if (E.Eliminated)
          violate(AuditRule::Structure, Id, G.Id, locOf(E),
                  strFormat("eliminated entry %d listed as a member of "
                            "group %d", Id, G.Id));
        if (E.GroupId != G.Id)
          violate(AuditRule::Structure, Id, G.Id, locOf(E),
                  strFormat("entry %d is a member of group %d but points at "
                            "group %d", Id, G.Id, E.GroupId));
        if (MemberOf[Id] >= 0)
          violate(AuditRule::Structure, Id, G.Id, locOf(E),
                  strFormat("entry %d is a member of both group %d and "
                            "group %d", Id, MemberOf[Id], G.Id));
        MemberOf[Id] = G.Id;
      }
      for (int Id : G.Attached)
        if (!Plan.Entries[Id].Eliminated)
          violate(AuditRule::Structure, Id, G.Id,
                  locOf(Plan.Entries[Id]),
                  strFormat("live entry %d attached to group %d", Id, G.Id));
    }
    // Every eliminated entry must resolve through its SubsumedBy chain to a
    // live subsumer (redundancy availability, Section 4.6).
    for (const CommEntry &E : Plan.Entries) {
      if (!E.Eliminated)
        continue;
      int Cur = E.SubsumedBy;
      std::set<int> Seen;
      while (Cur >= 0 && Plan.Entries[Cur].Eliminated &&
             Seen.insert(Cur).second)
        Cur = Plan.Entries[Cur].SubsumedBy;
      if (Cur < 0 || Plan.Entries[Cur].Eliminated)
        violate(AuditRule::RedundancyAvail, E.Id, E.GroupId, locOf(E),
                strFormat("eliminated entry %d has no live subsumer "
                          "(SubsumedBy chain %s)",
                          E.Id, E.SubsumedBy < 0 ? "unset" : "cyclic"));
    }
  }

  // --- Family 1: placement range / dominance ---------------------------------

  void checkPlacementRange(const CommEntry &E, const CommGroup &G) {
    const Slot &P = G.Placement;
    // Earliest(u) must dominate the placement: data the communication ships
    // is complete there (Claim 4.1). For reductions Earliest is the slot
    // after the partial-sum statement (Section 6.2), so this also enforces
    // the inverted ordering.
    if (!Ctx.DT.slotDominates(E.EarliestSlot, P))
      violate(AuditRule::PlacementRange, E.Id, G.Id, locOf(E),
              strFormat("communication for '%s' placed at %s, before "
                        "Earliest %s",
                        arrayName(E.ArrayId).c_str(), slotStr(P).c_str(),
                        slotStr(E.EarliestSlot).c_str()));
    // The placement must not fall past Latest(u) either: groups move to the
    // latest position *common* to their members (Section 4.7).
    if (!Ctx.DT.slotDominates(P, E.LatestSlot))
      violate(AuditRule::PlacementRange, E.Id, G.Id, locOf(E),
              strFormat("communication for '%s' placed at %s, past Latest "
                        "%s",
                        arrayName(E.ArrayId).c_str(), slotStr(P).c_str(),
                        slotStr(E.LatestSlot).c_str()));
    // Every use must be dominated: the data must be available on all paths.
    if (E.M.Kind != CommKind::Reduce &&
        !Ctx.slotDominatesUse(P, E.UseStmt))
      violate(E.Eliminated ? AuditRule::RedundancyAvail
                           : AuditRule::PlacementRange,
              E.Id, G.Id, locOf(E),
              strFormat("communication for '%s' placed at %s does not "
                        "dominate its use",
                        arrayName(E.ArrayId).c_str(), slotStr(P).c_str()));
  }

  // --- Family 2: intervening definitions -------------------------------------

  void checkInterveningDefs(const CommEntry &E, const CommGroup &G,
                            DepDirs &DD) {
    if (E.M.Kind == CommKind::Reduce)
      return; // Reductions consume partial sums computed at their statement.
    const Slot &P = G.Placement;
    const std::vector<int> &UseNest = Ctx.G.loopNestOf(E.UseStmt);
    // Levels whose carrying loop does not enclose the placement: only these
    // can produce a family-(b) violation.
    int NL = static_cast<int>(UseNest.size());
    std::vector<char> LevelBad(static_cast<size_t>(NL) + 1, 0);
    bool AnyBad = false;
    for (int L = 1; L <= NL; ++L) {
      LevelBad[L] = Ctx.G.enclosingLoopAtLevel(P.Node, L) != UseNest[L - 1];
      AnyBad |= LevelBad[L] != 0;
    }
    for (const AssignStmt *D : ArrayDefs[E.ArrayId]) {
      // Screens that avoid the subscript solve: (a) needs the def textually
      // before the use (loop independence) and the placement dominating it;
      // (b) needs some carried level L <= CNL whose loop misses the
      // placement. Both are O(1)-checkable from the statement positions.
      bool NeedA = Ctx.G.preorderOf(D) < Ctx.G.preorderOf(E.UseStmt) &&
                   Ctx.DT.slotDominates(P, Ctx.G.slotBefore(D));
      bool NeedB = false;
      if (AnyBad) {
        int CNL = Ctx.Dep.commonNestingLevel(D, E.UseStmt);
        for (int L = 1; L <= CNL && !NeedB; ++L)
          NeedB = LevelBad[L] != 0;
      }
      if (!NeedA && !NeedB)
        continue;
      for (const ArrayRef &Ref : E.Refs) {
        // One subscript solve per (def, ref); the loop-independent and
        // per-level carried predicates both derive from the summary.
        Ctx.Dep.flowDirections(D, E.UseStmt, Ref, DD);
        // (a) Same-iteration staleness: a definition with a feasible
        // loop-independent flow dependence to the use that can execute
        // after the communication fired.
        if (DepTester::loopIndependentFromDirs(DD) &&
            !onDisjointBranches(D, E.UseStmt) &&
            Ctx.DT.slotDominates(P, Ctx.G.slotBefore(D))) {
          violate(AuditRule::InterveningDef, E.Id, G.Id, locOf(E),
                  strFormat("definition of '%s' at %s executes between the "
                            "communication at %s and its use",
                            arrayName(E.ArrayId).c_str(),
                            D->loc().isValid() ? D->loc().str().c_str()
                                               : "<unknown>",
                            slotStr(P).c_str()));
          break; // One diagnostic per (def, entry) pair is enough.
        }
        // (b) Cross-iteration staleness: a definition with a dependence
        // carried by loop l rewrites communicated data every iteration, so
        // the communication must fire inside that loop.
        bool Flagged = false;
        for (int L = 1; L <= DD.CNL && !Flagged; ++L) {
          if (!DepTester::carriedFromDirs(DD, L))
            continue;
          if (static_cast<int>(UseNest.size()) < L ||
              Ctx.G.enclosingLoopAtLevel(P.Node, L) != UseNest[L - 1]) {
            const CfgLoop &Loop = Ctx.G.loop(UseNest[L - 1]);
            violate(AuditRule::InterveningDef, E.Id, G.Id, locOf(E),
                    strFormat("communication for '%s' at %s sits outside "
                              "the level-%d loop '%s' that carries a true "
                              "dependence from the definition at %s",
                              arrayName(E.ArrayId).c_str(),
                              slotStr(P).c_str(), L,
                              Ctx.R.loopVarName(Loop.L->var()).c_str(),
                              D->loc().isValid() ? D->loc().str().c_str()
                                                 : "<unknown>"));
            Flagged = true;
          }
        }
        if (Flagged)
          break;
      }
    }
  }

  // --- Family 3: data coverage -----------------------------------------------

  void checkCoverage(const CommEntry &E, const CommGroup &G) {
    int Level = Ctx.slotLevel(G.Placement);
    Asd A = asdOfEntry(Ctx, E, Level);
    const RegSection &Needed = E.ReducedD ? *E.ReducedD : A.D;
    for (const Asd &Data : G.Data) {
      if (Data.ArrayId != E.ArrayId || !Needed.containedIn(Data.D))
        continue;
      // Eliminated entries additionally need the mapping covered: every
      // receiver the dropped message would have served must be served by
      // the surviving one (the M1(D1) subset-of M2(D1) test, Section 4.6).
      if (E.Eliminated && !E.M.subsumedBy(Data.M))
        continue;
      return; // Covered.
    }
    violate(AuditRule::SubsetCoverage, E.Id, G.Id, locOf(E),
            strFormat("section %s of '%s' required by entry %d is not "
                      "covered by group %d's descriptors",
                      Needed.str(&Ctx.R.loopVarNames()).c_str(),
                      arrayName(E.ArrayId).c_str(), E.Id, G.Id));
  }

  // --- Family 5: combining legality -------------------------------------------

  void checkCombining(const CommGroup &G) {
    int Level = Ctx.slotLevel(G.Placement);
    int64_t Bytes = 0;
    int Payloads = 0;
    auto checkMapping = [&](const CommEntry &E) {
      if (E.M.Kind != G.Kind)
        violate(AuditRule::CombineLegality, E.Id, G.Id, locOf(E),
                strFormat("entry %d (%s) combined into a %s group",
                          E.Id, commKindName(E.M.Kind),
                          commKindName(G.Kind)));
      else if (!E.M.compatibleWith(G.M))
        violate(AuditRule::CombineLegality, E.Id, G.Id, locOf(E),
                strFormat("entry %d's mapping %s is incompatible with "
                          "group %d's %s",
                          E.Id, E.M.str().c_str(), G.Id, G.M.str().c_str()));
      // The group's widened mapping must reach at least as far as every
      // contributor (the overlap region serves the widest shift).
      for (unsigned K = 0; K < E.M.Offsets.size() && K < G.M.Offsets.size();
           ++K)
        if (std::llabs(E.M.Offsets[K]) > std::llabs(G.M.Offsets[K]))
          violate(AuditRule::CombineLegality, E.Id, G.Id, locOf(E),
                  strFormat("group %d's shift reaches %lld along template "
                            "dim %u but entry %d needs %lld",
                            G.Id,
                            static_cast<long long>(G.M.Offsets[K]), K, E.Id,
                            static_cast<long long>(E.M.Offsets[K])));
    };
    for (int Id : G.Members) {
      const CommEntry &E = Plan.Entries[Id];
      checkMapping(E);
      // The final position must be common to every member's original
      // placement range (Section 4.7's latest-common-position rule).
      if (!std::binary_search(OrigCandIds[Id].begin(), OrigCandIds[Id].end(),
                              Ctx.G.slotId(G.Placement)))
        violate(AuditRule::CombineLegality, Id, G.Id, locOf(E),
                strFormat("group %d placed at %s, which is not a legal "
                          "placement point of member entry %d",
                          G.Id, slotStr(G.Placement).c_str(), Id));
      if (G.Kind != CommKind::Reduce) {
        Bytes += estimatePerProcBytes(Ctx, asdOfEntry(Ctx, E, Level),
                                      Opts.NumProcs);
        ++Payloads;
      }
    }
    for (int Id : G.Attached)
      checkMapping(Plan.Entries[Id]);
    // The combining size threshold gates *combined* messages only; a lone
    // oversized message is legal (there is nothing to split).
    if (Payloads >= 2 && Bytes > Opts.CombineThresholdBytes)
      violate(AuditRule::CombineLegality, -1, G.Id,
              G.Members.empty() ? SourceLoc()
                                : locOf(Plan.Entries[G.Members[0]]),
              strFormat("group %d combines %lld bytes per processor, over "
                        "the %lld byte threshold",
                        G.Id, static_cast<long long>(Bytes),
                        static_cast<long long>(Opts.CombineThresholdBytes)));
  }

  const AnalysisContext &Ctx;
  const CommPlan &Plan;
  const PlacementOptions &Opts;
  DiagEngine *Diags;
  AuditReport Report;
  /// Array id -> regular defining statements.
  std::vector<std::vector<const AssignStmt *>> ArrayDefs;
  /// Stmt id -> (if id, branch) ancestor pairs.
  std::vector<std::vector<std::pair<int, int>>> BranchSig;
  /// Entry id -> sorted dense slot ids of OriginalCandidates.
  std::vector<std::vector<int>> OrigCandIds;
};

} // namespace

AuditReport gca::auditPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                           const PlacementOptions &Opts, DiagEngine *Diags) {
  uint64_t QueriesBefore = Ctx.DT.queryCount();
  AuditReport Report = Auditor(Ctx, Plan, Opts, Diags).run();
  if (StatsRegistry *S = Opts.Stats) {
    S->add("dom.queries",
           static_cast<int64_t>(Ctx.DT.queryCount() - QueriesBefore));
    S->add("audit.entries-checked", Report.EntriesChecked);
    S->add("audit.groups-checked", Report.GroupsChecked);
    // The six invariant families of the file comment each ran once.
    S->add("audit.rules-checked", 6);
    S->add("audit.violations", static_cast<int64_t>(Report.Violations.size()));
  }
  return Report;
}
