//===- ir/Ast.h - HPF-lite abstract syntax ----------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HPF-lite IR: routines containing distributed array declarations and a
/// structured statement tree (assignments with affine/section subscripts, DO
/// loops, IF/ELSE). This models exactly what the paper's algorithm consumes:
/// data-parallel programs annotated with data-decomposition directives, where
/// each RHS is treated as a list of array references (the paper itself elides
/// the operations; Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_IR_AST_H
#define GCA_IR_AST_H

#include "ir/AffineExpr.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gca {

class Routine;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// Per-dimension distribution directive, as in HPF `DISTRIBUTE (BLOCK, *)`.
enum class DistKind : uint8_t {
  Block, ///< Contiguous blocks across the corresponding template dimension.
  Cyclic, ///< Round-robin elements across the template dimension.
  Star,  ///< Dimension is not distributed (every owner holds it whole).
};

const char *distKindName(DistKind Kind);

/// A declared distributed (or replicated) array.
struct ArrayDecl {
  std::string Name;
  int Id = -1;
  /// Inclusive per-dimension bounds; Fortran-style, default lower bound 1.
  std::vector<int64_t> Lo;
  std::vector<int64_t> Hi;
  std::vector<DistKind> Dist;
  int64_t ElemBytes = 8;

  unsigned rank() const { return static_cast<unsigned>(Lo.size()); }
  int64_t extent(unsigned Dim) const { return Hi[Dim] - Lo[Dim] + 1; }
  int64_t numElems() const;

  /// True if at least one dimension is distributed.
  bool isDistributed() const;
};

/// The template signature of an array: the ordered list of its distributed
/// dimensions' (extent, kind) pairs. Two arrays whose signatures match are
/// aligned to the same (virtual) processor template, which is the paper's
/// precondition for communication-pattern compatibility checks done "in the
/// virtual processor space of template positions" (Section 4.7).
struct TemplateSig {
  std::vector<std::pair<int64_t, DistKind>> Dims;

  bool operator==(const TemplateSig &RHS) const { return Dims == RHS.Dims; }
  unsigned rank() const { return static_cast<unsigned>(Dims.size()); }
  std::string str() const;
};

/// Computes the template signature of \p A (empty for replicated arrays).
TemplateSig templateSigOf(const ArrayDecl &A);

/// A declared scalar. Scalars are replicated on all processors; assigning a
/// reduction into one implies a global reduction communication.
struct ScalarDecl {
  std::string Name;
  int Id = -1;
};

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

/// One subscript position: either a single affine index (`a(i-1, j)`) or an
/// F90 section triplet (`a(1:n:2, :)`). The frontend resolves bare `:` to the
/// declared bounds, so Range subscripts always carry explicit bounds.
struct Subscript {
  enum class Kind : uint8_t { Elem, Range } K = Kind::Elem;
  AffineExpr Lo; ///< Elem: the index. Range: the lower bound.
  AffineExpr Hi; ///< Range only: the upper bound (inclusive).
  int64_t Step = 1; ///< Range only.

  static Subscript elem(AffineExpr Index);
  static Subscript range(AffineExpr Lo, AffineExpr Hi, int64_t Step = 1);

  bool isElem() const { return K == Kind::Elem; }
  bool isRange() const { return K == Kind::Range; }
  bool operator==(const Subscript &RHS) const {
    return K == RHS.K && Lo == RHS.Lo && (!isRange() || (Hi == RHS.Hi && Step == RHS.Step));
  }
};

/// A (possibly sectioned) reference to an array.
struct ArrayRef {
  int ArrayId = -1;
  std::vector<Subscript> Subs;
  SourceLoc Loc;

  bool isValid() const { return ArrayId >= 0; }
};

/// One term of a right-hand side. The analyses treat the RHS as a list of
/// references; the operator combining terms only matters for flop counting.
struct RhsTerm {
  enum class Kind : uint8_t { Array, Scalar, Literal, SumReduce } K =
      Kind::Literal;
  ArrayRef Ref;       ///< Array / SumReduce argument.
  int ScalarId = -1;  ///< Scalar.
  double Literal = 0; ///< Literal.

  static RhsTerm array(ArrayRef Ref);
  static RhsTerm scalar(int ScalarId);
  static RhsTerm literal(double Value);
  static RhsTerm sum(ArrayRef Ref);

  bool isArrayLike() const {
    return K == Kind::Array || K == Kind::SumReduce;
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t { Assign, Loop, If };

/// Base of the structured statement tree. Statements are owned by their
/// Routine; ids are dense and stable, assigned at creation.
class Stmt {
public:
  StmtKind kind() const { return K; }
  int id() const { return Id; }
  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  virtual ~Stmt(); // Out-of-line virtual anchor.

protected:
  Stmt(StmtKind K, int Id) : K(K), Id(Id) {}

private:
  friend class Routine;
  StmtKind K;
  int Id;
  SourceLoc Loc;
};

/// `lhs = rhs-term (op rhs-term)*`. The LHS is an array reference or a
/// scalar. A SumReduce RHS term denotes `sum(section)`, the paper's SUM
/// communication type.
class AssignStmt : public Stmt {
public:
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

  bool lhsIsScalar() const { return LhsScalarId >= 0; }
  const ArrayRef &lhs() const { return Lhs; }
  int lhsScalarId() const { return LhsScalarId; }
  const std::vector<RhsTerm> &rhs() const { return Rhs; }
  std::vector<RhsTerm> &rhs() { return Rhs; }

  /// Floating point operations per (scalar) execution of this statement.
  int numOps() const { return NumOps; }

private:
  friend class Routine;
  AssignStmt(int Id, ArrayRef Lhs, std::vector<RhsTerm> Rhs, int NumOps)
      : Stmt(StmtKind::Assign, Id), Lhs(std::move(Lhs)), LhsScalarId(-1),
        Rhs(std::move(Rhs)), NumOps(NumOps) {}
  AssignStmt(int Id, int LhsScalarId, std::vector<RhsTerm> Rhs, int NumOps)
      : Stmt(StmtKind::Assign, Id), LhsScalarId(LhsScalarId),
        Rhs(std::move(Rhs)), NumOps(NumOps) {}

  ArrayRef Lhs;
  int LhsScalarId;
  std::vector<RhsTerm> Rhs;
  int NumOps = 1;
};

/// `do v = lo, hi [, step] ... end do` with affine bounds and constant step.
class LoopStmt : public Stmt {
public:
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Loop; }

  int var() const { return Var; }
  const AffineExpr &lo() const { return Lo; }
  const AffineExpr &hi() const { return Hi; }
  int64_t step() const { return Step; }
  const std::vector<Stmt *> &body() const { return Body; }
  std::vector<Stmt *> &body() { return Body; }

  /// Trip count when the bounds are constant; -1 otherwise.
  int64_t constTripCount() const;

private:
  friend class Routine;
  LoopStmt(int Id, int Var, AffineExpr Lo, AffineExpr Hi, int64_t Step)
      : Stmt(StmtKind::Loop, Id), Var(Var), Lo(std::move(Lo)),
        Hi(std::move(Hi)), Step(Step) {}

  int Var;
  AffineExpr Lo, Hi;
  int64_t Step;
  std::vector<Stmt *> Body;
};

/// `if (cond) then ... [else ...] end if`. The condition is an uninterpreted
/// name: the analyses only need the control structure, exactly as in the
/// paper's running example (Figure 4, `if (cond)`).
class IfStmt : public Stmt {
public:
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

  const std::string &cond() const { return Cond; }
  const std::vector<Stmt *> &thenBody() const { return Then; }
  std::vector<Stmt *> &thenBody() { return Then; }
  const std::vector<Stmt *> &elseBody() const { return Else; }
  std::vector<Stmt *> &elseBody() { return Else; }

private:
  friend class Routine;
  IfStmt(int Id, std::string Cond)
      : Stmt(StmtKind::If, Id), Cond(std::move(Cond)) {}

  std::string Cond;
  std::vector<Stmt *> Then, Else;
};

//===----------------------------------------------------------------------===//
// Routine / Program
//===----------------------------------------------------------------------===//

/// One procedure: declarations plus a structured statement tree. The paper's
/// algorithm is intraprocedural, so the Routine is the unit of analysis.
class Routine {
public:
  explicit Routine(std::string Name) : Name(std::move(Name)) {}
  Routine(const Routine &) = delete;
  Routine &operator=(const Routine &) = delete;

  const std::string &name() const { return Name; }

  // Declarations -----------------------------------------------------------

  /// Declares an array with bounds 1..Extents[d] and the given distribution.
  int addArray(const std::string &Name, std::vector<int64_t> Extents,
               std::vector<DistKind> Dist);

  /// Declares an array with explicit per-dimension bounds.
  int addArrayBounds(const std::string &Name, std::vector<int64_t> Lo,
                     std::vector<int64_t> Hi, std::vector<DistKind> Dist);

  int addScalar(const std::string &Name);
  int addLoopVar(const std::string &Name);

  const std::vector<ArrayDecl> &arrays() const { return Arrays; }
  const ArrayDecl &array(int Id) const { return Arrays[Id]; }
  const std::vector<ScalarDecl> &scalars() const { return Scalars; }
  const ScalarDecl &scalar(int Id) const { return Scalars[Id]; }
  const std::vector<std::string> &loopVarNames() const { return LoopVars; }
  const std::string &loopVarName(int Id) const { return LoopVars[Id]; }

  /// \returns the array id for \p Name, or -1.
  int findArray(const std::string &Name) const;
  /// \returns the scalar id for \p Name, or -1.
  int findScalar(const std::string &Name) const;

  // Statement construction -------------------------------------------------

  AssignStmt *newAssign(ArrayRef Lhs, std::vector<RhsTerm> Rhs,
                        int NumOps = 1);
  AssignStmt *newScalarAssign(int LhsScalarId, std::vector<RhsTerm> Rhs,
                              int NumOps = 1);
  LoopStmt *newLoop(int Var, AffineExpr Lo, AffineExpr Hi, int64_t Step = 1);
  IfStmt *newIf(std::string Cond);

  // Body -------------------------------------------------------------------

  const std::vector<Stmt *> &body() const { return Body; }
  std::vector<Stmt *> &body() { return Body; }

  unsigned numStmts() const { return static_cast<unsigned>(Stmts.size()); }
  Stmt *stmt(int Id) const { return Stmts[Id].get(); }

  /// Visits every statement in the tree in source order (pre-order).
  void forEachStmt(const std::function<void(Stmt *)> &Fn) const;

private:
  std::string Name;
  std::vector<ArrayDecl> Arrays;
  std::vector<ScalarDecl> Scalars;
  std::vector<std::string> LoopVars;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::vector<Stmt *> Body;
};

/// A whole HPF-lite program (usually a single routine per source file, but
/// the workloads use several routines for trimesh/hydflo).
struct Program {
  std::string Name;
  std::vector<std::unique_ptr<Routine>> Routines;

  Routine *findRoutine(const std::string &Name) const;
};

} // namespace gca

#endif // GCA_IR_AST_H
