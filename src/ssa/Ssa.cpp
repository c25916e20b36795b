//===- ssa/Ssa.cpp - Array SSA over the augmented CFG ---------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "ssa/Ssa.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace gca;

const char *gca::defKindName(DefKind Kind) {
  switch (Kind) {
  case DefKind::Entry:
    return "entry";
  case DefKind::Regular:
    return "def";
  case DefKind::PhiEntry:
    return "phiEntry";
  case DefKind::PhiExit:
    return "phiExit";
  case DefKind::PhiMerge:
    return "phiMerge";
  }
  return "?";
}

namespace gca {

class SsaBuilder {
public:
  explicit SsaBuilder(const Cfg &G) { S.G = &G; }

  Ssa take() { return std::move(S); }

  void run() {
    const Routine &R = S.G->routine();
    S.NumArrays = static_cast<int>(R.arrays().size());
    S.NumVars = S.NumArrays + static_cast<unsigned>(R.scalars().size());
    S.StmtDef.assign(R.numStmts(), -1);
    S.UseReaching.assign(R.numStmts(), {});

    // ENTRY pseudo-defs for every variable.
    Cur.resize(S.NumVars);
    S.EntryDefs.resize(S.NumVars);
    for (unsigned V = 0; V != S.NumVars; ++V) {
      int D = newDef(DefKind::Entry, static_cast<int>(V));
      S.Defs[D].Node = S.G->entry();
      S.Defs[D].AfterSlot = {S.G->entry(), 0};
      S.EntryDefs[V] = D;
      Cur[V] = D;
    }
    S.LoopDefBegin.assign(S.G->numLoops(), 0);
    S.LoopDefEnd.assign(S.G->numLoops(), 0);
    buildList(R.body());
    indexArrayDefs();
  }

private:
  /// Groups the regular array defs by array (a counting sort over the
  /// id-ordered def table keeps program order within each group).
  void indexArrayDefs() {
    S.ArrayDefBegin.assign(S.NumArrays + 1, 0);
    for (const SsaDef &D : S.Defs)
      if (D.Kind == DefKind::Regular && S.varIsArray(D.Var))
        ++S.ArrayDefBegin[D.Var + 1];
    for (int A = 0; A != S.NumArrays; ++A)
      S.ArrayDefBegin[A + 1] += S.ArrayDefBegin[A];
    S.ArrayDefIds.resize(S.ArrayDefBegin[S.NumArrays]);
    std::vector<int> Fill(S.ArrayDefBegin.begin(), S.ArrayDefBegin.end() - 1);
    for (const SsaDef &D : S.Defs)
      if (D.Kind == DefKind::Regular && S.varIsArray(D.Var))
        S.ArrayDefIds[Fill[D.Var]++] = D.Id;
  }

  int newDef(DefKind Kind, int Var) {
    SsaDef D;
    D.Id = static_cast<int>(S.Defs.size());
    D.Kind = Kind;
    D.Var = Var;
    D.LoopChain = LoopStack;
    S.Defs.push_back(std::move(D));
    return S.Defs.back().Id;
  }

  /// Variables assigned anywhere in \p List (including nested loops/ifs).
  void collectDefined(const std::vector<Stmt *> &List,
                      std::set<int> &Out) const {
    for (const Stmt *St : List) {
      if (const auto *A = dyn_cast<AssignStmt>(St)) {
        Out.insert(A->lhsIsScalar() ? S.varOfScalar(A->lhsScalarId())
                                    : S.varOfArray(A->lhs().ArrayId));
      } else if (const auto *L = dyn_cast<LoopStmt>(St)) {
        collectDefined(L->body(), Out);
      } else if (const auto *I = dyn_cast<IfStmt>(St)) {
        collectDefined(I->thenBody(), Out);
        collectDefined(I->elseBody(), Out);
      }
    }
  }

  void buildList(const std::vector<Stmt *> &List) {
    for (const Stmt *St : List)
      buildStmt(St);
  }

  void buildStmt(const Stmt *St) {
    switch (St->kind()) {
    case StmtKind::Assign:
      buildAssign(cast<AssignStmt>(St));
      break;
    case StmtKind::Loop:
      buildLoop(cast<LoopStmt>(St));
      break;
    case StmtKind::If:
      buildIf(cast<IfStmt>(St));
      break;
    }
  }

  void buildAssign(const AssignStmt *A) {
    // Record the reaching definition of every variable at this statement
    // (the RHS reads see the pre-assignment state).
    S.UseReaching[A->id()] = Cur;

    int Var = A->lhsIsScalar() ? S.varOfScalar(A->lhsScalarId())
                               : S.varOfArray(A->lhs().ArrayId);
    int D = newDef(DefKind::Regular, Var);
    S.Defs[D].Stmt = A;
    S.Defs[D].Node = S.G->nodeOf(A);
    S.Defs[D].Prev = Cur[Var];
    S.Defs[D].AfterSlot = S.G->slotAfter(A);
    S.StmtDef[A->id()] = D;
    Cur[Var] = D;
  }

  void buildLoop(const LoopStmt *L) {
    int LoopId = S.G->loopIdOf(L);
    const CfgLoop &Loop = S.G->loop(LoopId);

    std::set<int> Defined;
    collectDefined(L->body(), Defined);

    // Pre-loop state, for phiExit zero-trip parameters.
    std::vector<int> Pre = Cur;

    // phiEntry defs at the header; the back-edge parameter is patched after
    // the body is processed.
    LoopStack.push_back(LoopId);
    S.LoopDefBegin[LoopId] = static_cast<int>(S.Defs.size());
    std::vector<std::pair<int, int>> Phis; // (var, phiEntry def id)
    for (int Var : Defined) {
      int D = newDef(DefKind::PhiEntry, Var);
      S.Defs[D].LoopId = LoopId;
      S.Defs[D].Node = Loop.Header;
      S.Defs[D].Params = {Pre[Var], -1};
      S.Defs[D].AfterSlot = {Loop.Header, 0};
      Cur[Var] = D;
      Phis.emplace_back(Var, D);
    }

    buildList(L->body());
    S.LoopDefEnd[LoopId] = static_cast<int>(S.Defs.size());

    for (auto &[Var, Phi] : Phis)
      S.Defs[Phi].Params[1] = Cur[Var];
    LoopStack.pop_back();

    // phiExit defs at the postexit: merge the loop-exit value (the header's
    // phiEntry) with the zero-trip (pre-loop) value.
    for (auto &[Var, Phi] : Phis) {
      int D = newDef(DefKind::PhiExit, Var);
      S.Defs[D].LoopId = LoopId;
      S.Defs[D].Node = Loop.Postexit;
      S.Defs[D].Params = {Phi, Pre[Var]};
      S.Defs[D].AfterSlot = {Loop.Postexit, 0};
      Cur[Var] = D;
    }
  }

  void buildIf(const IfStmt *I) {
    std::vector<int> Before = Cur;
    buildList(I->thenBody());
    std::vector<int> ThenOut = Cur;
    Cur = Before;
    buildList(I->elseBody());
    std::vector<int> ElseOut = Cur;

    int Join = S.G->joinNodeOf(I);
    for (unsigned V = 0; V != S.NumVars; ++V) {
      if (ThenOut[V] == ElseOut[V]) {
        Cur[V] = ThenOut[V];
        continue;
      }
      int D = newDef(DefKind::PhiMerge, static_cast<int>(V));
      S.Defs[D].Node = Join;
      S.Defs[D].Params = {ThenOut[V], ElseOut[V]};
      S.Defs[D].AfterSlot = {Join, 0};
      Cur[V] = D;
    }
  }

  Ssa S;
  std::vector<int> Cur;
  std::vector<int> LoopStack;
};

} // namespace gca

Ssa Ssa::build(const Cfg &G) {
  SsaBuilder B(G);
  B.run();
  return B.take();
}

std::string Ssa::varName(int Var) const {
  const Routine &R = G->routine();
  if (varIsArray(Var))
    return R.array(Var).Name;
  return R.scalar(Var - NumArrays).Name;
}

int Ssa::defOfStmt(const AssignStmt *S) const { return StmtDef[S->id()]; }

int Ssa::reachingBefore(const AssignStmt *S, int Var) const {
  const std::vector<int> &Map = UseReaching[S->id()];
  assert(!Map.empty() && "statement has no recorded reaching defs");
  return Map[Var];
}

std::span<const int> Ssa::arrayDefsInLoop(int ArrayId, int LoopId) const {
  std::span<const int> All = arrayDefs(ArrayId);
  auto Begin = std::lower_bound(All.begin(), All.end(), LoopDefBegin[LoopId]);
  auto End = std::lower_bound(Begin, All.end(), LoopDefEnd[LoopId]);
  return {Begin, End};
}

void Ssa::collectReachingRegularDefs(int DefId, std::vector<int> &Out,
                                     bool &ReachesEntry) const {
  ReachesEntry = false;
  std::vector<char> Visited(Defs.size(), 0);
  std::vector<int> Work = {DefId};
  while (!Work.empty()) {
    int D = Work.back();
    Work.pop_back();
    if (D < 0 || Visited[D])
      continue;
    Visited[D] = 1;
    const SsaDef &Def = Defs[D];
    switch (Def.Kind) {
    case DefKind::Entry:
      ReachesEntry = true;
      break;
    case DefKind::Regular:
      Out.push_back(D);
      // Arrays are preserving: untouched elements come from Prev.
      if (varIsArray(Def.Var))
        Work.push_back(Def.Prev);
      break;
    case DefKind::PhiEntry:
    case DefKind::PhiExit:
    case DefKind::PhiMerge:
      for (int P : Def.Params)
        Work.push_back(P);
      break;
    }
  }
  std::sort(Out.begin(), Out.end());
}

int Ssa::commonNestingLevel(int DefId,
                            const std::vector<int> &UseNest) const {
  const std::vector<int> &DefChain = Defs[DefId].LoopChain;
  unsigned N = 0;
  while (N < DefChain.size() && N < UseNest.size() &&
         DefChain[N] == UseNest[N])
    ++N;
  return static_cast<int>(N);
}

std::string Ssa::str() const {
  std::string Out;
  for (const SsaDef &D : Defs) {
    Out += strFormat("d%-3d %-8s %-8s node=B%-3d", D.Id, defKindName(D.Kind),
                     varName(D.Var).c_str(), D.Node);
    if (D.Kind == DefKind::Regular)
      Out += strFormat(" stmt=%d prev=d%d", D.Stmt->id(), D.Prev);
    if (!D.Params.empty()) {
      Out += " params=(";
      for (size_t I = 0; I < D.Params.size(); ++I)
        Out += strFormat(I ? ",d%d" : "d%d", D.Params[I]);
      Out += ")";
    }
    Out += "\n";
  }
  return Out;
}
