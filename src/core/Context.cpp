//===- core/Context.cpp - Shared analysis context -------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "core/Context.h"

#include <cassert>
#include <cstdlib>
#include <numeric>

using namespace gca;

void AnalysisContext::initVarInfo() {
  unsigned NumVars = static_cast<unsigned>(R.loopVarNames().size());
  VarLevel.assign(NumVars, 0);
  VarLoop.assign(NumVars, nullptr);
  for (unsigned L = 0, E = G.numLoops(); L != E; ++L) {
    const CfgLoop &Loop = G.loop(static_cast<int>(L));
    VarLevel[Loop.L->var()] = Loop.Level;
    VarLoop[Loop.L->var()] = Loop.L;
  }
}

AffineExpr AnalysisContext::expandBound(const AffineExpr &E, int Level,
                                        bool Low) const {
  // Repeatedly substitute the deepest too-deep variable by the loop bound
  // that extremizes the expression. Loop bounds only mention shallower
  // variables, so this terminates. E is copied only when nothing in it
  // needs expanding; otherwise the substitutions build the result.
  AffineExpr Out;
  const AffineExpr *Cur = &E;
  while (true) {
    int Deepest = -1;
    int DeepestLevel = Level;
    for (const auto &Term : Cur->terms()) {
      if (VarLevel[Term.first] > DeepestLevel) {
        DeepestLevel = VarLevel[Term.first];
        Deepest = Term.first;
      }
    }
    if (Deepest < 0)
      break;
    const LoopStmt *L = VarLoop[Deepest];
    assert(L && "loop variable without a loop");
    assert(L->step() > 0 && "section expansion requires positive loop steps");
    int64_t C = Cur->coeff(Deepest);
    // For a lower bound: positive coefficient wants the loop minimum.
    const AffineExpr &Repl =
        ((C > 0) == Low) ? L->lo() : L->hi();
    Out = Cur->substitute(Deepest, Repl);
    Cur = &Out;
  }
  if (Cur == &E)
    return E;
  return Out;
}

RegSection AnalysisContext::sectionOfRef(const ArrayRef &Ref,
                                         int Level) const {
  std::vector<SecDim> Dims;
  Dims.reserve(Ref.Subs.size());
  for (const Subscript &Sub : Ref.Subs) {
    // Stride contributed by expanded variables: gcd of their coefficients
    // (and the existing step for ranges).
    int64_t Stride = Sub.isRange() ? std::llabs(Sub.Step) : 0;
    bool Expanded = false;
    for (const auto &[V, Coeff] : Sub.Lo.terms()) {
      if (VarLevel[V] > Level) {
        Stride = std::gcd(Stride, std::llabs(Coeff) *
                                      std::llabs(VarLoop[V]->step()));
        Expanded = true;
      }
    }
    if (Sub.isElem() && !Expanded)
      Stride = 1; // Single element per enclosing iteration.
    if (Stride == 0)
      Stride = 1;
    SecDim D;
    D.Lo = expandBound(Sub.Lo, Level, /*Low=*/true);
    D.Hi = expandBound(Sub.isElem() ? Sub.Lo : Sub.Hi, Level, /*Low=*/false);
    D.Step = Stride;
    Dims.push_back(std::move(D));
  }
  return RegSection(std::move(Dims));
}
