//===- dep/DepTest.h - Array dependence testing -----------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direction-vector dependence testing between an array definition (a
/// statement's LHS write) and an array use (an RHS reference), refined to the
/// paper's IsArrayDep(d, u, level) predicate of Figure 8(d):
///
///   IsArrayDep(d, u, l) holds iff there is a true (flow) dependence from
///   d's write to u's read whose direction vector over the common loops is
///   (=, ..., =, <, *, ..., *) with the '<' at level l — i.e. the dependence
///   is carried at level l — or, for l == CNL(d, u), a loop-independent
///   dependence (all '=') with d textually preceding u.
///
/// Subscripts are affine, so the solver uses ZIV, strong-SIV distance, a GCD
/// solvability screen (which resolves the odd/even column split of the
/// paper's Figure 4), and constant-bounds disjointness; anything beyond that
/// is conservatively assumed dependent with unconstrained direction.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_DEP_DEPTEST_H
#define GCA_DEP_DEPTEST_H

#include "cfg/Cfg.h"

#include <vector>

namespace gca {

/// The set of directions still admissible at one common loop level.
struct DirConstraint {
  bool Lt = true; ///< def iteration < use iteration ('<', carried).
  bool Eq = true; ///< same iteration ('=').
  bool Gt = true; ///< def iteration > use iteration ('>', anti direction).

  bool any() const { return Lt || Eq || Gt; }
  void intersectSingle(int Sign); // Sign<0 -> Gt only, 0 -> Eq, >0 -> Lt.
};

/// The complete direction summary of one (def, use-ref) pair: everything the
/// level predicates below derive, from a single directionConstraints pass.
/// Hot loops (the Earliest barrier walk, the verifier's kill screen)
/// fetch one summary per pair instead of re-solving the subscripts once per
/// level.
struct DepDirs {
  bool Possible = false;   ///< Dependence not provably absent.
  bool TextBefore = false; ///< Def textually precedes the use.
  int CNL = 0;             ///< Common nesting level of the pair.
  std::vector<DirConstraint> Dirs; ///< Per-level constraints; size CNL.
};

class DepTester {
public:
  explicit DepTester(const Cfg &G);

  /// Solves the pair once and bundles the per-level constraints with the
  /// textual order; all level predicates are pure functions of the result.
  DepDirs flowDirections(const AssignStmt *Def, const AssignStmt *Use,
                         const ArrayRef &UseRef) const;

  /// In-place variant: overwrites \p Out, reusing its Dirs capacity. Hot
  /// loops keep one scratch DepDirs alive across thousands of pairs to stay
  /// allocation-free.
  void flowDirections(const AssignStmt *Def, const AssignStmt *Use,
                      const ArrayRef &UseRef, DepDirs &Out) const;

  /// carriedAt derived from a precomputed summary.
  static bool carriedFromDirs(const DepDirs &D, int Level) {
    if (!D.Possible || Level < 1 || Level > D.CNL)
      return false;
    for (int L = 0; L + 1 < Level; ++L)
      if (!D.Dirs[L].Eq)
        return false;
    return D.Dirs[Level - 1].Lt;
  }

  /// loopIndependent derived from a precomputed summary.
  static bool loopIndependentFromDirs(const DepDirs &D) {
    if (!D.Possible || !D.TextBefore)
      return false;
    for (const DirConstraint &C : D.Dirs)
      if (!C.Eq)
        return false;
    return true;
  }

  /// depLevel derived from a precomputed summary.
  static int depLevelFromDirs(const DepDirs &D) {
    for (int L = D.CNL; L >= 1; --L)
      if (carriedFromDirs(D, L) ||
          (L == D.CNL && loopIndependentFromDirs(D)))
        return L;
    return 0;
  }

  /// Figure 8(d)'s IsArrayDep(d, u, Level). \p Def writes the same array
  /// \p UseRef reads (callers guarantee this); \p Level is 1-based.
  bool isArrayDep(const AssignStmt *Def, const AssignStmt *Use,
                  const ArrayRef &UseRef, int Level) const;

  /// DepLevel(d, u) of Section 4.2: the deepest level at which IsArrayDep
  /// holds; 0 when there is no constraint (communication may hoist to the
  /// routine entry).
  int depLevel(const AssignStmt *Def, const AssignStmt *Use,
               const ArrayRef &UseRef) const;

  /// Common nesting level of the two statements.
  int commonNestingLevel(const AssignStmt *A, const AssignStmt *B) const;

  /// True when a flow dependence carried at exactly \p Level is feasible:
  /// direction vector (=, ..., =, <) with the '<' at Level.
  bool carriedAt(const AssignStmt *Def, const AssignStmt *Use,
                 const ArrayRef &UseRef, int Level) const;

  /// True when a loop-independent flow dependence is feasible: the all-equal
  /// direction vector is admissible over every common level and the def
  /// textually precedes the use (trivially all-equal when CNL == 0).
  bool loopIndependent(const AssignStmt *Def, const AssignStmt *Use,
                       const ArrayRef &UseRef) const;

  /// Computes per-level direction constraints (1..CNL). Returns false when
  /// the dependence is provably absent altogether.
  bool directionConstraints(const AssignStmt *Def, const AssignStmt *Use,
                            const ArrayRef &UseRef,
                            std::vector<DirConstraint> &Out) const;

private:
  /// Constant value range of an affine expression under known loop bounds;
  /// returns false when some variable's bounds are not constant.
  bool constRange(const AffineExpr &E, int64_t &Min, int64_t &Max) const;

  const Cfg &G;
  /// Loop-variable id -> (lo, hi) when both bounds are constants.
  std::vector<std::pair<int64_t, int64_t>> VarBounds;
  std::vector<char> VarBoundsKnown;
  /// Loop-variable id -> step; and whether the lower bound is a constant
  /// (needed for lattice base alignment in the GCD screen).
  std::vector<int64_t> VarStep;
  std::vector<char> VarLoKnown;
  std::vector<int64_t> VarLo;
};

} // namespace gca

#endif // GCA_DEP_DEPTEST_H
