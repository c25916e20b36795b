//===- analysis/IrVerify.cpp - Structural IR/plan verifier ----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "analysis/IrVerify.h"

#include "core/Detect.h"
#include "core/Placement.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace gca;

const char *gca::verifyRuleName(VerifyRule Rule) {
  switch (Rule) {
  case VerifyRule::CfgStructure:
    return "cfg-structure";
  case VerifyRule::SsaForm:
    return "ssa-form";
  case VerifyRule::PlanIntegrity:
    return "plan-integrity";
  case VerifyRule::DecisionLog:
    return "decision-log";
  case VerifyRule::CombineLegality:
    return "combine-legality";
  case VerifyRule::AvailCoverage:
    return "avail-coverage";
  case VerifyRule::AvailFreshness:
    return "avail-freshness";
  case VerifyRule::AvailRedundancy:
    return "avail-redundancy";
  }
  return "?";
}

std::string VerifyViolation::str() const {
  std::string Out = strFormat("%s(entry=%d,group=%d)", verifyRuleName(Rule),
                              EntryId, GroupId);
  if (Loc.isValid())
    Out += " @" + Loc.str();
  return Out + ": " + Message;
}

std::string VerifyReport::str() const {
  std::string Out =
      strFormat("verify[%s]: %s (%d facts, %d checks, %d violations)\n",
                strategyName(Strat), ok() ? "PASS" : "FAIL", Facts, Checks,
                static_cast<int>(Violations.size()));
  for (const VerifyViolation &V : Violations)
    Out += "  " + V.str() + "\n";
  return Out;
}

std::string VerifyReport::json() const {
  std::string Out = strFormat(
      "{\"ok\":%s,\"strategy\":\"%s\",\"facts\":%d,\"checks\":%d,"
      "\"violations\":[",
      ok() ? "true" : "false", strategyName(Strat), Facts, Checks);
  for (size_t I = 0; I != Violations.size(); ++I) {
    const VerifyViolation &V = Violations[I];
    if (I)
      Out += ",";
    Out += strFormat("{\"rule\":\"%s\",\"entry\":%d,\"group\":%d,"
                     "\"line\":%d,\"col\":%d,\"message\":\"%s\"}",
                     verifyRuleName(V.Rule), V.EntryId, V.GroupId, V.Loc.Line,
                     V.Loc.Col, jsonEscape(V.Message).c_str());
  }
  return Out + "]}";
}

namespace {

void violate(VerifyReport &Report, VerifyRule Rule, int EntryId, int GroupId,
             SourceLoc Loc, std::string Msg) {
  Report.Violations.push_back({Rule, EntryId, GroupId, Loc, std::move(Msg)});
}

/// True when (Node, Index) denotes an existing slot of \p G.
bool validSlot(const Cfg &G, const Slot &S) {
  return S.Node >= 0 && S.Node < static_cast<int>(G.numNodes()) &&
         S.Index >= 0 &&
         S.Index <= static_cast<int>(G.node(S.Node).Stmts.size());
}

//===----------------------------------------------------------------------===//
// CFG well-formedness
//===----------------------------------------------------------------------===//

void checkCfg(const Cfg &G, VerifyReport &Report) {
  auto bad = [&](int Node, std::string Msg) {
    violate(Report, VerifyRule::CfgStructure, -1, -1, SourceLoc(),
            strFormat("node B%d: ", Node) + std::move(Msg));
  };
  int N = static_cast<int>(G.numNodes());

  // Node ids, edge symmetry, statement position maps, slot numbering.
  for (int Id = 0; Id != N; ++Id) {
    const CfgNode &Node = G.node(Id);
    Report.Checks += 4;
    if (Node.Id != Id)
      bad(Id, strFormat("id %d does not match its index", Node.Id));
    for (int S : Node.Succs) {
      if (S < 0 || S >= N) {
        bad(Id, strFormat("successor B%d out of range", S));
        continue;
      }
      const std::vector<int> &BP = G.node(S).Preds;
      if (std::find(BP.begin(), BP.end(), Id) == BP.end())
        bad(Id, strFormat("edge to B%d has no matching back-pointer", S));
    }
    for (int P : Node.Preds) {
      if (P < 0 || P >= N) {
        bad(Id, strFormat("predecessor B%d out of range", P));
        continue;
      }
      const std::vector<int> &FS = G.node(P).Succs;
      if (std::find(FS.begin(), FS.end(), Id) == FS.end())
        bad(Id, strFormat("pred edge from B%d has no matching successor", P));
    }
    if (Node.Kind != NodeKind::Plain && Node.Kind != NodeKind::Entry &&
        !Node.Stmts.empty())
      bad(Id, strFormat("%s node carries %d statements",
                        nodeKindName(Node.Kind),
                        static_cast<int>(Node.Stmts.size())));
    for (size_t I = 0; I != Node.Stmts.size(); ++I) {
      const AssignStmt *S = Node.Stmts[I];
      ++Report.Checks;
      if (G.nodeOf(S) != Id || G.indexOf(S) != static_cast<int>(I))
        bad(Id, strFormat("statement %d maps to (B%d,%d), stored at index %d",
                          S->id(), G.nodeOf(S), G.indexOf(S),
                          static_cast<int>(I)));
    }
    for (int I = 0, E = static_cast<int>(Node.Stmts.size()); I <= E; ++I) {
      Slot S{Id, I};
      ++Report.Checks;
      int SId = G.slotId(S);
      if (SId < 0 || SId >= G.numSlots() || !(G.slotOfId(SId) == S))
        bad(Id, strFormat("slot (B%d,%d) does not round-trip through its "
                          "dense id %d",
                          Id, I, SId));
    }
  }

  // Entry/exit shape.
  Report.Checks += 2;
  if (G.entry() < 0 || G.entry() >= N || !G.node(G.entry()).Preds.empty())
    violate(Report, VerifyRule::CfgStructure, -1, -1, SourceLoc(),
            "entry node is missing or has predecessors");
  if (G.exit() < 0 || G.exit() >= N || !G.node(G.exit()).Succs.empty())
    violate(Report, VerifyRule::CfgStructure, -1, -1, SourceLoc(),
            "exit node is missing or has successors");

  // Loop triples: preheader -> header, the preheader -> postexit zero-trip
  // edge, the header -> postexit loop exit, and the back edge from inside
  // the loop (Figure 7).
  auto hasEdge = [&](int From, int To) {
    const std::vector<int> &S = G.node(From).Succs;
    return std::find(S.begin(), S.end(), To) != S.end();
  };
  for (unsigned LI = 0, LE = G.numLoops(); LI != LE; ++LI) {
    const CfgLoop &L = G.loop(static_cast<int>(LI));
    auto badLoop = [&](std::string Msg) {
      violate(Report, VerifyRule::CfgStructure, -1, -1, SourceLoc(),
              strFormat("loop %d: ", L.Id) + std::move(Msg));
    };
    Report.Checks += 8;
    if (L.Preheader < 0 || L.Preheader >= N || L.Header < 0 || L.Header >= N ||
        L.Postexit < 0 || L.Postexit >= N) {
      badLoop("preheader/header/postexit node missing");
      continue;
    }
    if (G.node(L.Preheader).Kind != NodeKind::Preheader ||
        G.node(L.Header).Kind != NodeKind::Header ||
        G.node(L.Postexit).Kind != NodeKind::Postexit)
      badLoop("preheader/header/postexit node kinds are wrong");
    if (!hasEdge(L.Preheader, L.Header))
      badLoop("missing preheader -> header edge");
    if (!hasEdge(L.Preheader, L.Postexit))
      badLoop("missing zero-trip preheader -> postexit edge");
    if (!hasEdge(L.Header, L.Postexit))
      badLoop("missing header -> postexit exit edge");
    if (G.node(L.Header).LoopId != L.Id)
      badLoop("header is not inside its own loop");
    if (G.node(L.Preheader).LoopId != L.Parent ||
        G.node(L.Postexit).LoopId != L.Parent)
      badLoop("preheader/postexit are not in the enclosing loop");
    int WantLevel = L.Parent < 0 ? 1 : G.loop(L.Parent).Level + 1;
    if (L.Level != WantLevel)
      badLoop(strFormat("level %d, expected %d from the parent chain",
                        L.Level, WantLevel));
    // The back edge: some predecessor of the header other than the
    // preheader, coming from inside the loop.
    bool HasBack = false;
    for (int P : G.node(L.Header).Preds) {
      if (P == L.Preheader)
        continue;
      for (int C = G.node(P).LoopId; C >= 0; C = G.loop(C).Parent)
        if (C == L.Id)
          HasBack = true;
    }
    if (!HasBack)
      badLoop("no back edge from inside the loop to the header");
  }
}

//===----------------------------------------------------------------------===//
// SSA form
//===----------------------------------------------------------------------===//

void checkSsa(const Cfg &G, const Ssa &S, VerifyReport &Report) {
  auto bad = [&](int Def, std::string Msg) {
    violate(Report, VerifyRule::SsaForm, -1, -1, SourceLoc(),
            strFormat("def %d: ", Def) + std::move(Msg));
  };
  int NumDefs = static_cast<int>(S.numDefs());
  std::vector<int> EntryCount(S.numVars(), 0);
  std::vector<int> DefOfStmt; // Stmt id -> def id, for single-def checking.

  for (int Id = 0; Id != NumDefs; ++Id) {
    const SsaDef &D = S.def(Id);
    Report.Checks += 3;
    if (D.Id != Id)
      bad(Id, strFormat("id %d does not match its index", D.Id));
    if (D.Var < 0 || D.Var >= static_cast<int>(S.numVars())) {
      bad(Id, strFormat("variable %d out of range", D.Var));
      continue;
    }
    if (D.Node < 0 || D.Node >= static_cast<int>(G.numNodes()))
      bad(Id, strFormat("node B%d out of range", D.Node));
    for (int P : D.Params) {
      ++Report.Checks;
      if (P < 0 || P >= NumDefs)
        bad(Id, strFormat("phi parameter %d out of range", P));
      else if (S.def(P).Var != D.Var)
        bad(Id, strFormat("phi parameter %d defines variable %d, not %d", P,
                          S.def(P).Var, D.Var));
    }
    switch (D.Kind) {
    case DefKind::Entry:
      ++EntryCount[D.Var];
      if (!D.Params.empty() || D.Stmt)
        bad(Id, "ENTRY pseudo-def with parameters or a statement");
      break;
    case DefKind::Regular: {
      if (!D.Stmt) {
        bad(Id, "regular def without a statement");
        break;
      }
      int SId = D.Stmt->id();
      if (SId >= static_cast<int>(DefOfStmt.size()))
        DefOfStmt.resize(SId + 1, -1);
      if (DefOfStmt[SId] >= 0)
        bad(Id, strFormat("statement %d already defines def %d (single "
                          "def per statement)",
                          SId, DefOfStmt[SId]));
      DefOfStmt[SId] = Id;
      if (S.defOfStmt(D.Stmt) != Id)
        bad(Id, strFormat("defOfStmt(stmt %d) resolves to %d", SId,
                          S.defOfStmt(D.Stmt)));
      if (G.nodeOf(D.Stmt) != D.Node)
        bad(Id, strFormat("statement %d lives in B%d, def recorded in B%d",
                          SId, G.nodeOf(D.Stmt), D.Node));
      if (S.varIsArray(D.Var)) {
        if (D.Prev < 0 || D.Prev >= NumDefs)
          bad(Id, "preserving array def without a Prev link");
        else if (S.def(D.Prev).Var != D.Var)
          bad(Id, strFormat("Prev def %d defines variable %d, not %d",
                            D.Prev, S.def(D.Prev).Var, D.Var));
      }
      if (!validSlot(G, D.AfterSlot) || !(D.AfterSlot == G.slotAfter(D.Stmt)))
        bad(Id, "AfterSlot is not the slot immediately after the statement");
      break;
    }
    case DefKind::PhiEntry:
    case DefKind::PhiExit:
    case DefKind::PhiMerge:
      if (D.Params.size() != 2)
        bad(Id, strFormat("%s phi with arity %d, expected 2",
                          defKindName(D.Kind),
                          static_cast<int>(D.Params.size())));
      if ((D.Kind == DefKind::PhiEntry || D.Kind == DefKind::PhiExit) &&
          (D.LoopId < 0 || D.LoopId >= static_cast<int>(G.numLoops())))
        bad(Id, "loop phi without a valid loop");
      break;
    }
  }

  for (unsigned V = 0; V != S.numVars(); ++V) {
    ++Report.Checks;
    if (EntryCount[V] != 1)
      violate(Report, VerifyRule::SsaForm, -1, -1, SourceLoc(),
              strFormat("variable %d has %d ENTRY pseudo-defs, expected "
                        "exactly 1",
                        V, EntryCount[V]));
    else if (S.entryDef(static_cast<int>(V)) < 0 ||
             S.def(S.entryDef(static_cast<int>(V))).Kind != DefKind::Entry)
      violate(Report, VerifyRule::SsaForm, -1, -1, SourceLoc(),
              strFormat("entryDef(%u) does not resolve to an ENTRY def", V));
  }
}

//===----------------------------------------------------------------------===//
// Plan cross-reference integrity
//===----------------------------------------------------------------------===//

SourceLoc locOf(const CommEntry &E) {
  if (!E.Refs.empty() && E.Refs[0].Loc.isValid())
    return E.Refs[0].Loc;
  return E.UseStmt ? E.UseStmt->loc() : SourceLoc();
}

void checkPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
               VerifyReport &Report) {
  const Cfg &G = Ctx.G;
  int NumEntries = static_cast<int>(Plan.Entries.size());
  int NumGroups = static_cast<int>(Plan.Groups.size());

  std::vector<int> MemberOf(NumEntries, -1), AttachedTo(NumEntries, -1);
  // Loop variables bound at the current group's placement point.
  std::vector<char> InScope(Ctx.R.loopVarNames().size(), 0);
  for (const CommGroup &Grp : Plan.Groups) {
    auto bad = [&](int Entry, std::string Msg) {
      violate(Report, VerifyRule::PlanIntegrity, Entry, Grp.Id,
              Entry >= 0 && Entry < NumEntries ? locOf(Plan.Entries[Entry])
                                               : SourceLoc(),
              std::move(Msg));
    };
    Report.Checks += 4;
    if (Grp.Id != static_cast<int>(&Grp - Plan.Groups.data()))
      bad(-1, strFormat("group id %d does not match its index", Grp.Id));
    if (!validSlot(G, Grp.Placement))
      bad(-1, strFormat("group %d placed at non-existent slot (B%d,%d)",
                        Grp.Id, Grp.Placement.Node, Grp.Placement.Index));
    if (Grp.Members.empty())
      bad(-1, strFormat("group %d has no members", Grp.Id));
    if (Grp.Data.size() != Grp.DataAug.size())
      bad(-1, strFormat("group %d carries %d descriptors but %d "
                        "augmentation records",
                        Grp.Id, static_cast<int>(Grp.Data.size()),
                        static_cast<int>(Grp.DataAug.size())));
    for (size_t I = 0;
         I != std::min(Grp.Data.size(), Grp.DataAug.size()); ++I) {
      ++Report.Checks;
      if (Grp.DataAug[I].size() != Grp.Data[I].D.rank())
        bad(-1, strFormat("group %d descriptor %d has rank %u but %d "
                          "augmentation dims",
                          Grp.Id, static_cast<int>(I), Grp.Data[I].D.rank(),
                          static_cast<int>(Grp.DataAug[I].size())));
    }
    for (int Id : Grp.Members) {
      Report.Checks += 3;
      if (Id < 0 || Id >= NumEntries) {
        bad(-1, strFormat("member entry %d out of range", Id));
        continue;
      }
      if (MemberOf[Id] >= 0)
        bad(Id, strFormat("entry %d is a member of groups %d and %d", Id,
                          MemberOf[Id], Grp.Id));
      MemberOf[Id] = Grp.Id;
      if (Plan.Entries[Id].GroupId != Grp.Id)
        bad(Id, strFormat("member entry %d points at group %d", Id,
                          Plan.Entries[Id].GroupId));
      if (Plan.Entries[Id].Eliminated)
        bad(Id, strFormat("eliminated entry %d listed as a member", Id));
    }
    for (int Id : Grp.Attached) {
      Report.Checks += 2;
      if (Id < 0 || Id >= NumEntries) {
        bad(-1, strFormat("attached entry %d out of range", Id));
        continue;
      }
      if (AttachedTo[Id] >= 0)
        bad(Id, strFormat("entry %d attached to groups %d and %d", Id,
                          AttachedTo[Id], Grp.Id));
      AttachedTo[Id] = Grp.Id;
      if (!Plan.Entries[Id].Eliminated)
        bad(Id, strFormat("live entry %d listed as attached", Id));
    }

    // Descriptor sections may only mention loop variables bound by loops
    // enclosing the placement point — a deeper loop's variable has no value
    // there, so a section parameterized by it describes nothing.
    int PlaceLoop = Grp.Placement.Node >= 0 &&
                            Grp.Placement.Node < static_cast<int>(G.numNodes())
                        ? G.loopOf(Grp.Placement.Node)
                        : -1;
    for (int C = PlaceLoop; C >= 0; C = G.loop(C).Parent)
      InScope[G.loop(C).L->var()] = 1;
    for (size_t I = 0; I != Grp.Data.size(); ++I) {
      for (unsigned Dim = 0; Dim != Grp.Data[I].D.rank(); ++Dim) {
        const SecDim &SD = Grp.Data[I].D.dim(Dim);
        for (const AffineExpr *E : {&SD.Lo, &SD.Hi})
          for (const auto &[V, Coeff] : E->terms()) {
            ++Report.Checks;
            if (V < 0 ||
                V >= static_cast<int>(Ctx.R.loopVarNames().size())) {
              bad(-1, strFormat("group %d descriptor %d mentions unknown "
                                "variable %d",
                                Grp.Id, static_cast<int>(I), V));
              continue;
            }
            if (!InScope[V] && Ctx.varLoop(V) != nullptr)
              bad(-1, strFormat("group %d descriptor %d mentions loop "
                                "variable '%s', which is not in scope at "
                                "(B%d,%d)",
                                Grp.Id, static_cast<int>(I),
                                Ctx.R.loopVarName(V).c_str(),
                                Grp.Placement.Node, Grp.Placement.Index));
          }
      }
    }
    for (int C = PlaceLoop; C >= 0; C = G.loop(C).Parent)
      InScope[G.loop(C).L->var()] = 0;
  }

  for (const CommEntry &E : Plan.Entries) {
    auto bad = [&](std::string Msg) {
      violate(Report, VerifyRule::PlanIntegrity, E.Id, E.GroupId, locOf(E),
              std::move(Msg));
    };
    Report.Checks += 4;
    if (E.Id != static_cast<int>(&E - Plan.Entries.data()))
      bad(strFormat("entry id %d does not match its index", E.Id));
    if (E.GroupId < 0 || E.GroupId >= NumGroups)
      bad(strFormat("entry %d is served by no group (GroupId %d)", E.Id,
                    E.GroupId));
    else if (E.Eliminated ? AttachedTo[E.Id] != E.GroupId
                          : MemberOf[E.Id] != E.GroupId)
      bad(strFormat("entry %d points at group %d but is not on its %s list",
                    E.Id, E.GroupId, E.Eliminated ? "attached" : "member"));
    for (const Slot *S : {&E.EarliestSlot, &E.LatestSlot}) {
      if (S->isValid() && !validSlot(G, *S))
        bad(strFormat("entry %d has a placement-range slot (B%d,%d) that "
                      "is not in the CFG",
                      E.Id, S->Node, S->Index));
    }
    if (E.Eliminated) {
      int Cur = E.SubsumedBy;
      std::set<int> Seen;
      while (Cur >= 0 && Cur < NumEntries && Plan.Entries[Cur].Eliminated &&
             Seen.insert(Cur).second)
        Cur = Plan.Entries[Cur].SubsumedBy;
      if (Cur < 0 || Cur >= NumEntries || Plan.Entries[Cur].Eliminated)
        bad(strFormat("eliminated entry %d has no live subsumer "
                      "(SubsumedBy chain %s)",
                      E.Id,
                      E.SubsumedBy < 0
                          ? "unset"
                          : (E.SubsumedBy >= NumEntries ? "out of range"
                                                        : "cyclic")));
    }
  }
}

//===----------------------------------------------------------------------===//
// Decision log consistency
//===----------------------------------------------------------------------===//

void checkDecisions(const CommPlan &Plan, VerifyReport &Report) {
  if (Plan.Decisions.empty())
    return; // Plans built without a log (tests, replays) have nothing to
            // cross-check.
  int NumEntries = static_cast<int>(Plan.Entries.size());
  int NumGroups = static_cast<int>(Plan.Groups.size());
  std::vector<char> GroupPlacedSeen(NumGroups, 0);
  std::vector<int> LoweredSeen(static_cast<size_t>(NumGroups), 0);
  std::vector<char> EliminatedSeen(NumEntries, 0);

  auto bad = [&](const DecisionEvent &Ev, std::string Msg) {
    violate(Report, VerifyRule::DecisionLog, Ev.EntryId, -1, SourceLoc(),
            strFormat("%s event: ", decisionKindName(Ev.Kind)) +
                std::move(Msg));
  };
  for (const DecisionEvent &Ev : Plan.Decisions) {
    ++Report.Checks;
    switch (Ev.Kind) {
    case DecisionKind::Detected:
    case DecisionKind::RangeComputed:
      if (Ev.EntryId < 0 || Ev.EntryId >= NumEntries)
        bad(Ev, strFormat("entry %d out of range", Ev.EntryId));
      break;
    case DecisionKind::RedundancyEliminated:
      if (Ev.EntryId < 0 || Ev.EntryId >= NumEntries)
        bad(Ev, strFormat("entry %d out of range", Ev.EntryId));
      else if (!Plan.Entries[Ev.EntryId].Eliminated)
        bad(Ev, strFormat("entry %d is not eliminated in the final plan",
                          Ev.EntryId));
      else
        EliminatedSeen[Ev.EntryId] = 1;
      break;
    case DecisionKind::PartiallyReduced:
      if (Ev.EntryId < 0 || Ev.EntryId >= NumEntries)
        bad(Ev, strFormat("entry %d out of range", Ev.EntryId));
      else if (!Plan.Entries[Ev.EntryId].ReducedD)
        bad(Ev, strFormat("entry %d carries no reduced section", Ev.EntryId));
      break;
    case DecisionKind::GroupPlaced:
      if (Ev.OtherId < 0 || Ev.OtherId >= NumGroups) {
        bad(Ev, strFormat("group %d out of range", Ev.OtherId));
      } else {
        if (!(Plan.Groups[Ev.OtherId].Placement == Ev.Where))
          bad(Ev, strFormat("records group %d at (B%d,%d) but the plan "
                            "places it at (B%d,%d)",
                            Ev.OtherId, Ev.Where.Node, Ev.Where.Index,
                            Plan.Groups[Ev.OtherId].Placement.Node,
                            Plan.Groups[Ev.OtherId].Placement.Index));
        GroupPlacedSeen[Ev.OtherId] = 1;
      }
      break;
    case DecisionKind::LoweredAs:
      if (Ev.OtherId < 0 || Ev.OtherId >= NumGroups)
        bad(Ev, strFormat("group %d out of range", Ev.OtherId));
      else if (++LoweredSeen[static_cast<size_t>(Ev.OtherId)] > 1)
        bad(Ev, strFormat("group %d lowered more than once", Ev.OtherId));
      break;
    case DecisionKind::SubsetSlotCleared:
    case DecisionKind::CombinedIntoGroup:
      // Slot/group ids in these events reference pre-merge state; only the
      // final-plan-facing kinds above are cross-checked.
      break;
    }
  }
  // Lowering is all-or-nothing: once any group carries a lowered-as event,
  // every group must carry exactly one.
  bool AnyLowered = false;
  for (int N : LoweredSeen)
    AnyLowered = AnyLowered || N > 0;
  if (AnyLowered)
    for (int GId = 0; GId != NumGroups; ++GId)
      if (!LoweredSeen[static_cast<size_t>(GId)]) {
        ++Report.Checks;
        violate(Report, VerifyRule::DecisionLog, -1, GId, SourceLoc(),
                strFormat("group %d has no LoweredAs event in the decision "
                          "log",
                          GId));
      }
  for (int GId = 0; GId != NumGroups; ++GId) {
    ++Report.Checks;
    if (!GroupPlacedSeen[GId])
      violate(Report, VerifyRule::DecisionLog, -1, GId, SourceLoc(),
              strFormat("group %d has no GroupPlaced event in the decision "
                        "log",
                        GId));
  }
  for (int EId = 0; EId != NumEntries; ++EId) {
    ++Report.Checks;
    if (Plan.Entries[EId].Eliminated && !EliminatedSeen[EId])
      violate(Report, VerifyRule::DecisionLog, EId, -1,
              locOf(Plan.Entries[EId]),
              strFormat("eliminated entry %d has no RedundancyEliminated "
                        "event in the decision log",
                        EId));
  }
}

} // namespace

void gca::verifyIr(const Routine &R, const Cfg &G, const Ssa &S,
                   VerifyReport &Report) {
  (void)R;
  checkCfg(G, Report);
  checkSsa(G, S, Report);
}

void gca::verifyPlanIntegrity(const AnalysisContext &Ctx,
                              const CommPlan &Plan, VerifyReport &Report) {
  checkPlan(Ctx, Plan, Report);
  checkDecisions(Plan, Report);
}

//===----------------------------------------------------------------------===//
// Combining legality (Section 4.7)
//===----------------------------------------------------------------------===//

void gca::verifyCombineLegality(const AnalysisContext &Ctx,
                                const CommPlan &Plan,
                                const PlacementOptions &Opts,
                                VerifyReport &Report) {
  int NumEntries = static_cast<int>(Plan.Entries.size());
  std::vector<const CommEntry *> Members;
  for (const CommGroup &Grp : Plan.Groups) {
    if (!validSlot(Ctx.G, Grp.Placement))
      continue;
    auto bad = [&](const CommEntry &E, std::string Msg) {
      violate(Report, VerifyRule::CombineLegality, E.Id, Grp.Id, locOf(E),
              std::move(Msg));
    };
    auto checkMapping = [&](const CommEntry &E) {
      Report.Checks += 2;
      if (E.M.Kind != Grp.Kind)
        bad(E, strFormat("entry %d (%s) combined into a %s group", E.Id,
                         commKindName(E.M.Kind), commKindName(Grp.Kind)));
      else if (!E.M.compatibleWith(Grp.M))
        bad(E, strFormat("entry %d's mapping %s is incompatible with "
                         "group %d's %s",
                         E.Id, E.M.str().c_str(), Grp.Id,
                         Grp.M.str().c_str()));
      // The group's widened mapping must reach at least as far as every
      // contributor (the overlap region serves the widest shift).
      for (size_t K = 0; K < E.M.Offsets.size() && K < Grp.M.Offsets.size();
           ++K)
        if (std::llabs(E.M.Offsets[K]) > std::llabs(Grp.M.Offsets[K]))
          bad(E, strFormat("group %d's shift reaches %lld along template "
                           "dim %u but entry %d needs %lld",
                           Grp.Id, static_cast<long long>(Grp.M.Offsets[K]),
                           static_cast<unsigned>(K), E.Id,
                           static_cast<long long>(E.M.Offsets[K])));
    };
    Members.clear();
    for (int Id : Grp.Members)
      if (Id >= 0 && Id < NumEntries)
        Members.push_back(&Plan.Entries[Id]);
    for (const CommEntry *E : Members) {
      checkMapping(*E);
      // The final position must be common to every member's original
      // placement range (the latest-common-position rule).
      ++Report.Checks;
      if (std::find(E->OriginalCandidates.begin(),
                    E->OriginalCandidates.end(),
                    Grp.Placement) == E->OriginalCandidates.end())
        bad(*E, strFormat("group %d placed at (B%d,%d), which is not a "
                          "legal placement point of member entry %d",
                          Grp.Id, Grp.Placement.Node, Grp.Placement.Index,
                          E->Id));
    }
    for (int Id : Grp.Attached)
      if (Id >= 0 && Id < NumEntries)
        checkMapping(Plan.Entries[Id]);
    // The size threshold gates *combined* messages only; a lone oversized
    // message is legal (there is nothing to split).
    if (Grp.Kind == CommKind::Reduce || Members.size() < 2)
      continue;
    ++Report.Checks;
    int Level = Ctx.slotLevel(Grp.Placement);
    int64_t Bytes = 0;
    for (const CommEntry *E : Members)
      Bytes += estimatePerProcBytes(Ctx, asdOfEntry(Ctx, *E, Level),
                                    Opts.NumProcs);
    if (Bytes > Opts.CombineThresholdBytes)
      violate(Report, VerifyRule::CombineLegality, -1, Grp.Id,
              locOf(*Members.front()),
              strFormat("group %d combines %lld bytes per processor, over "
                        "the %lld byte threshold",
                        Grp.Id, static_cast<long long>(Bytes),
                        static_cast<long long>(Opts.CombineThresholdBytes)));
  }
}
