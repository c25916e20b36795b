//===- core/Context.h - Shared analysis context -----------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundles every per-routine analysis structure the placement algorithm
/// needs — augmented CFG, dominator tree, array SSA, dependence tester, and
/// loop-variable metadata — plus the section-expansion helper that turns a
/// reference into the array section accessed when communication is placed at
/// a given loop level (loops deeper than the level are expanded; enclosing
/// loop variables stay symbolic).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_CORE_CONTEXT_H
#define GCA_CORE_CONTEXT_H

#include "cfg/Cfg.h"
#include "cfg/DomTree.h"
#include "dep/DepTest.h"
#include "section/Section.h"
#include "ssa/Ssa.h"

namespace gca {

class AnalysisContext {
public:
  explicit AnalysisContext(const Routine &R)
      : R(R), G(Cfg::build(R)), DT(DomTree::compute(G)), S(Ssa::build(G)),
        Dep(G) {
    initVarInfo();
  }
  AnalysisContext(const AnalysisContext &) = delete;
  AnalysisContext &operator=(const AnalysisContext &) = delete;

  const Routine &R;
  Cfg G;
  DomTree DT;
  Ssa S;
  DepTester Dep;

  /// Nesting level (1-based) of the loop binding each loop variable.
  int varLevel(int Var) const { return VarLevel[Var]; }
  /// The loop binding each loop variable.
  const LoopStmt *varLoop(int Var) const { return VarLoop[Var]; }

  /// Nesting level of a slot (number of loops whose body contains it).
  int slotLevel(const Slot &P) const { return G.nestingLevel(P.Node); }

  /// The section of \p Ref accessed by all iterations of loops strictly
  /// deeper than \p Level; bounds stay affine in the variables of loops at
  /// or above \p Level. This is the data descriptor of a communication for
  /// \p Ref placed at nesting level \p Level.
  RegSection sectionOfRef(const ArrayRef &Ref, int Level) const;

  /// True when slot \p P is executed before statement \p Use on every path
  /// (i.e. P dominates the point just before Use).
  bool slotDominatesUse(const Slot &P, const AssignStmt *Use) const {
    return DT.slotDominates(P, G.slotBefore(Use));
  }

private:
  void initVarInfo();
  /// Expands every variable of level > \p Level out of \p E, steering toward
  /// the minimum (\p Low = true) or maximum of the expression.
  AffineExpr expandBound(const AffineExpr &E, int Level, bool Low) const;

  std::vector<int> VarLevel;
  std::vector<const LoopStmt *> VarLoop;
};

} // namespace gca

#endif // GCA_CORE_CONTEXT_H
