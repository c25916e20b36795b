//===- ir/Builder.h - Programmatic routine construction ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent builder over ir::Routine used by tests and workloads to construct
/// HPF-lite programs without going through the text frontend. Loop variables
/// are scoped by name: beginLoop("i", ...) introduces a fresh variable that
/// v("i") resolves to until the matching endLoop().
///
//===----------------------------------------------------------------------===//

#ifndef GCA_IR_BUILDER_H
#define GCA_IR_BUILDER_H

#include "ir/Ast.h"

#include <initializer_list>

namespace gca {

class RoutineBuilder {
public:
  /// Builds into \p R, which must outlive the builder.
  explicit RoutineBuilder(Routine &R) : R(R) {}

  Routine &routine() { return R; }

  // Declarations -----------------------------------------------------------

  /// Declares an array with 1-based bounds; \p Dist defaults to BLOCK in
  /// every dimension when empty.
  RoutineBuilder &array(const std::string &Name, std::vector<int64_t> Extents,
                        std::vector<DistKind> Dist = {});

  /// Declares an array with explicit bounds.
  RoutineBuilder &arrayBounds(const std::string &Name,
                              std::vector<int64_t> Lo, std::vector<int64_t> Hi,
                              std::vector<DistKind> Dist);

  RoutineBuilder &scalar(const std::string &Name);

  // Expressions ------------------------------------------------------------

  /// The innermost in-scope loop variable named \p Name.
  AffineExpr v(const std::string &Name) const;

  static AffineExpr c(int64_t Value) { return AffineExpr::constant(Value); }

  // References -------------------------------------------------------------

  /// `name(subs...)` with element subscripts.
  ArrayRef ref(const std::string &Name, std::vector<AffineExpr> Subs) const;

  /// `name(subs...)` with explicit Subscript values (sections allowed).
  ArrayRef refs(const std::string &Name, std::vector<Subscript> Subs) const;

  /// `name` as a whole-array reference (every dimension full range).
  ArrayRef whole(const std::string &Name) const;

  /// A full-range subscript for dimension \p Dim of \p Name.
  Subscript fullDim(const std::string &Name, unsigned Dim) const;

  // Statements -------------------------------------------------------------

  AssignStmt *assign(ArrayRef Lhs, std::vector<RhsTerm> Rhs, int NumOps = 1);

  /// Convenience: `lhs = r1 + r2 + ...` over plain array references.
  AssignStmt *assign(ArrayRef Lhs, std::initializer_list<ArrayRef> RhsRefs);

  /// Convenience: `lhs = literal`.
  AssignStmt *assignLit(ArrayRef Lhs, double Value);

  /// `scalarName = sum(ref)` — a SUM reduction.
  AssignStmt *sumInto(const std::string &ScalarName, ArrayRef Arg);

  LoopStmt *beginLoop(const std::string &Var, AffineExpr Lo, AffineExpr Hi,
                      int64_t Step = 1);
  void endLoop();

  IfStmt *beginIf(const std::string &Cond);
  void beginElse();
  void endIf();

  /// True when every loop/if opened has been closed.
  bool balanced() const { return Frames.empty(); }

private:
  std::vector<Stmt *> &currentList();
  void append(Stmt *S);

  struct Frame {
    Stmt *S;
    bool InElse = false; // IfStmt only.
    int LoopVarId = -1;  // LoopStmt only.
    std::string LoopVarName;
  };

  Routine &R;
  std::vector<Frame> Frames;
};

} // namespace gca

#endif // GCA_IR_BUILDER_H
