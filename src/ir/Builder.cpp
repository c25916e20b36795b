//===- ir/Builder.cpp - Programmatic routine construction -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

#include <cassert>

using namespace gca;

RoutineBuilder &RoutineBuilder::array(const std::string &Name,
                                      std::vector<int64_t> Extents,
                                      std::vector<DistKind> Dist) {
  if (Dist.empty())
    Dist.assign(Extents.size(), DistKind::Block);
  R.addArray(Name, std::move(Extents), std::move(Dist));
  return *this;
}

RoutineBuilder &RoutineBuilder::arrayBounds(const std::string &Name,
                                            std::vector<int64_t> Lo,
                                            std::vector<int64_t> Hi,
                                            std::vector<DistKind> Dist) {
  R.addArrayBounds(Name, std::move(Lo), std::move(Hi), std::move(Dist));
  return *this;
}

RoutineBuilder &RoutineBuilder::scalar(const std::string &Name) {
  R.addScalar(Name);
  return *this;
}

AffineExpr RoutineBuilder::v(const std::string &Name) const {
  for (auto It = Frames.rbegin(), E = Frames.rend(); It != E; ++It)
    if (It->LoopVarId >= 0 && It->LoopVarName == Name)
      return AffineExpr::var(It->LoopVarId);
  assert(false && "loop variable not in scope");
  return AffineExpr::constant(0);
}

ArrayRef RoutineBuilder::ref(const std::string &Name,
                             std::vector<AffineExpr> Subs) const {
  ArrayRef Out;
  Out.ArrayId = R.findArray(Name);
  assert(Out.ArrayId >= 0 && "reference to undeclared array");
  assert(Subs.size() == R.array(Out.ArrayId).rank() &&
         "subscript count does not match array rank");
  for (AffineExpr &S : Subs)
    Out.Subs.push_back(Subscript::elem(std::move(S)));
  return Out;
}

ArrayRef RoutineBuilder::refs(const std::string &Name,
                              std::vector<Subscript> Subs) const {
  ArrayRef Out;
  Out.ArrayId = R.findArray(Name);
  assert(Out.ArrayId >= 0 && "reference to undeclared array");
  assert(Subs.size() == R.array(Out.ArrayId).rank() &&
         "subscript count does not match array rank");
  Out.Subs = std::move(Subs);
  return Out;
}

ArrayRef RoutineBuilder::whole(const std::string &Name) const {
  int Id = R.findArray(Name);
  assert(Id >= 0 && "reference to undeclared array");
  const ArrayDecl &A = R.array(Id);
  ArrayRef Out;
  Out.ArrayId = Id;
  for (unsigned D = 0, E = A.rank(); D != E; ++D)
    Out.Subs.push_back(Subscript::range(AffineExpr::constant(A.Lo[D]),
                                        AffineExpr::constant(A.Hi[D])));
  return Out;
}

Subscript RoutineBuilder::fullDim(const std::string &Name,
                                  unsigned Dim) const {
  int Id = R.findArray(Name);
  assert(Id >= 0 && "reference to undeclared array");
  const ArrayDecl &A = R.array(Id);
  assert(Dim < A.rank() && "dimension out of range");
  return Subscript::range(AffineExpr::constant(A.Lo[Dim]),
                          AffineExpr::constant(A.Hi[Dim]));
}

std::vector<Stmt *> &RoutineBuilder::currentList() {
  if (Frames.empty())
    return R.body();
  Frame &F = Frames.back();
  if (auto *L = dyn_cast<LoopStmt>(F.S))
    return L->body();
  auto *I = cast<IfStmt>(F.S);
  return F.InElse ? I->elseBody() : I->thenBody();
}

void RoutineBuilder::append(Stmt *S) { currentList().push_back(S); }

AssignStmt *RoutineBuilder::assign(ArrayRef Lhs, std::vector<RhsTerm> Rhs,
                                   int NumOps) {
  AssignStmt *S = R.newAssign(std::move(Lhs), std::move(Rhs), NumOps);
  append(S);
  return S;
}

AssignStmt *RoutineBuilder::assign(ArrayRef Lhs,
                                   std::initializer_list<ArrayRef> RhsRefs) {
  std::vector<RhsTerm> Rhs;
  for (const ArrayRef &Ref : RhsRefs)
    Rhs.push_back(RhsTerm::array(Ref));
  int NumOps = static_cast<int>(Rhs.size());
  return assign(std::move(Lhs), std::move(Rhs), NumOps);
}

AssignStmt *RoutineBuilder::assignLit(ArrayRef Lhs, double Value) {
  return assign(std::move(Lhs), {RhsTerm::literal(Value)}, 0);
}

AssignStmt *RoutineBuilder::sumInto(const std::string &ScalarName,
                                    ArrayRef Arg) {
  int Sid = R.findScalar(ScalarName);
  assert(Sid >= 0 && "sum target scalar not declared");
  AssignStmt *S = R.newScalarAssign(Sid, {RhsTerm::sum(std::move(Arg))}, 1);
  append(S);
  return S;
}

LoopStmt *RoutineBuilder::beginLoop(const std::string &Var, AffineExpr Lo,
                                    AffineExpr Hi, int64_t Step) {
  int VarId = R.addLoopVar(Var);
  LoopStmt *L = R.newLoop(VarId, std::move(Lo), std::move(Hi), Step);
  append(L);
  Frame F;
  F.S = L;
  F.LoopVarId = VarId;
  F.LoopVarName = Var;
  Frames.push_back(std::move(F));
  return L;
}

void RoutineBuilder::endLoop() {
  assert(!Frames.empty() && isa<LoopStmt>(Frames.back().S) &&
         "endLoop without matching beginLoop");
  Frames.pop_back();
}

IfStmt *RoutineBuilder::beginIf(const std::string &Cond) {
  IfStmt *I = R.newIf(Cond);
  append(I);
  Frame F;
  F.S = I;
  Frames.push_back(std::move(F));
  return I;
}

void RoutineBuilder::beginElse() {
  assert(!Frames.empty() && isa<IfStmt>(Frames.back().S) &&
         !Frames.back().InElse && "beginElse without open if");
  Frames.back().InElse = true;
}

void RoutineBuilder::endIf() {
  assert(!Frames.empty() && isa<IfStmt>(Frames.back().S) &&
         "endIf without matching beginIf");
  Frames.pop_back();
}
