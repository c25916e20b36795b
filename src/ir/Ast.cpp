//===- ir/Ast.cpp - HPF-lite abstract syntax ------------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "ir/Ast.h"

#include "support/StrUtil.h"

#include <cassert>

using namespace gca;

Stmt::~Stmt() = default;

const char *gca::distKindName(DistKind Kind) {
  switch (Kind) {
  case DistKind::Block:
    return "BLOCK";
  case DistKind::Cyclic:
    return "CYCLIC";
  case DistKind::Star:
    return "*";
  }
  return "?";
}

int64_t ArrayDecl::numElems() const {
  int64_t N = 1;
  for (unsigned D = 0, E = rank(); D != E; ++D)
    N *= extent(D);
  return N;
}

bool ArrayDecl::isDistributed() const {
  for (DistKind K : Dist)
    if (K != DistKind::Star)
      return true;
  return false;
}

std::string TemplateSig::str() const {
  std::vector<std::string> Parts;
  for (const auto &D : Dims)
    Parts.push_back(strFormat("%lld:%s", static_cast<long long>(D.first),
                              distKindName(D.second)));
  std::string Out = "[";
  Out += join(Parts, ",");
  Out += ']';
  return Out;
}

TemplateSig gca::templateSigOf(const ArrayDecl &A) {
  TemplateSig Sig;
  for (unsigned D = 0, E = A.rank(); D != E; ++D)
    if (A.Dist[D] != DistKind::Star)
      Sig.Dims.emplace_back(A.extent(D), A.Dist[D]);
  return Sig;
}

Subscript Subscript::elem(AffineExpr Index) {
  Subscript S;
  S.K = Kind::Elem;
  S.Lo = std::move(Index);
  return S;
}

Subscript Subscript::range(AffineExpr Lo, AffineExpr Hi, int64_t Step) {
  assert(Step != 0 && "section step must be nonzero");
  Subscript S;
  S.K = Kind::Range;
  S.Lo = std::move(Lo);
  S.Hi = std::move(Hi);
  S.Step = Step;
  return S;
}

RhsTerm RhsTerm::array(ArrayRef Ref) {
  RhsTerm T;
  T.K = Kind::Array;
  T.Ref = std::move(Ref);
  return T;
}

RhsTerm RhsTerm::scalar(int ScalarId) {
  RhsTerm T;
  T.K = Kind::Scalar;
  T.ScalarId = ScalarId;
  return T;
}

RhsTerm RhsTerm::literal(double Value) {
  RhsTerm T;
  T.K = Kind::Literal;
  T.Literal = Value;
  return T;
}

RhsTerm RhsTerm::sum(ArrayRef Ref) {
  RhsTerm T;
  T.K = Kind::SumReduce;
  T.Ref = std::move(Ref);
  return T;
}

int64_t LoopStmt::constTripCount() const {
  if (!Lo.isConstant() || !Hi.isConstant())
    return -1;
  int64_t Span = Hi.constValue() - Lo.constValue();
  if (Step > 0)
    return Span < 0 ? 0 : Span / Step + 1;
  return Span > 0 ? 0 : Span / Step + 1;
}

int Routine::addArray(const std::string &Name, std::vector<int64_t> Extents,
                      std::vector<DistKind> Dist) {
  std::vector<int64_t> Lo(Extents.size(), 1);
  return addArrayBounds(Name, std::move(Lo), std::move(Extents),
                        std::move(Dist));
}

int Routine::addArrayBounds(const std::string &Name, std::vector<int64_t> Lo,
                            std::vector<int64_t> Hi,
                            std::vector<DistKind> Dist) {
  assert(Lo.size() == Hi.size() && Lo.size() == Dist.size() &&
         "mismatched array declaration ranks");
  assert(findArray(Name) < 0 && findScalar(Name) < 0 &&
         "redeclared array name");
  ArrayDecl A;
  A.Name = Name;
  A.Id = static_cast<int>(Arrays.size());
  A.Lo = std::move(Lo);
  A.Hi = std::move(Hi);
  A.Dist = std::move(Dist);
  Arrays.push_back(std::move(A));
  return Arrays.back().Id;
}

int Routine::addScalar(const std::string &Name) {
  assert(findArray(Name) < 0 && findScalar(Name) < 0 &&
         "redeclared scalar name");
  ScalarDecl S;
  S.Name = Name;
  S.Id = static_cast<int>(Scalars.size());
  Scalars.push_back(std::move(S));
  return Scalars.back().Id;
}

int Routine::addLoopVar(const std::string &Name) {
  LoopVars.push_back(Name);
  return static_cast<int>(LoopVars.size()) - 1;
}

int Routine::findArray(const std::string &Name) const {
  for (const ArrayDecl &A : Arrays)
    if (A.Name == Name)
      return A.Id;
  return -1;
}

int Routine::findScalar(const std::string &Name) const {
  for (const ScalarDecl &S : Scalars)
    if (S.Name == Name)
      return S.Id;
  return -1;
}

AssignStmt *Routine::newAssign(ArrayRef Lhs, std::vector<RhsTerm> Rhs,
                               int NumOps) {
  int Id = static_cast<int>(Stmts.size());
  auto *S = new AssignStmt(Id, std::move(Lhs), std::move(Rhs), NumOps);
  Stmts.emplace_back(S);
  return S;
}

AssignStmt *Routine::newScalarAssign(int LhsScalarId,
                                     std::vector<RhsTerm> Rhs, int NumOps) {
  int Id = static_cast<int>(Stmts.size());
  auto *S = new AssignStmt(Id, LhsScalarId, std::move(Rhs), NumOps);
  Stmts.emplace_back(S);
  return S;
}

LoopStmt *Routine::newLoop(int Var, AffineExpr Lo, AffineExpr Hi,
                           int64_t Step) {
  assert(Var >= 0 && Var < static_cast<int>(LoopVars.size()) &&
         "loop variable not declared");
  int Id = static_cast<int>(Stmts.size());
  auto *S = new LoopStmt(Id, Var, std::move(Lo), std::move(Hi), Step);
  Stmts.emplace_back(S);
  return S;
}

IfStmt *Routine::newIf(std::string Cond) {
  int Id = static_cast<int>(Stmts.size());
  auto *S = new IfStmt(Id, std::move(Cond));
  Stmts.emplace_back(S);
  return S;
}

static void visitStmts(const std::vector<Stmt *> &List,
                       const std::function<void(Stmt *)> &Fn) {
  for (Stmt *S : List) {
    Fn(S);
    if (auto *L = dyn_cast<LoopStmt>(S)) {
      visitStmts(L->body(), Fn);
    } else if (auto *I = dyn_cast<IfStmt>(S)) {
      visitStmts(I->thenBody(), Fn);
      visitStmts(I->elseBody(), Fn);
    }
  }
}

void Routine::forEachStmt(const std::function<void(Stmt *)> &Fn) const {
  visitStmts(Body, Fn);
}

Routine *Program::findRoutine(const std::string &Name) const {
  for (const auto &R : Routines)
    if (R->name() == Name)
      return R.get();
  return nullptr;
}
