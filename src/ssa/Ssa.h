//===- ssa/Ssa.h - Array SSA over the augmented CFG -------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static single assignment form over arrays and scalars, following the
/// paper's Section 4.1:
///
///  - every regular array definition is *preserving* (a partial write: the
///    rest of the array flows through from the previous definition);
///  - each loop header carries a phi-entry def (phiEntry) per variable
///    defined in the loop or in a transitively nested loop, with two
///    parameters: the definition reaching from before the loop and the
///    definition reaching around the back edge;
///  - each postexit node carries a phi-exit def (phiExit) per such variable,
///    merging the loop-exit value with the zero-trip (pre-loop) value;
///  - IF joins carry ordinary merge phis;
///  - every variable has a pseudo-def at ENTRY ("in our SSA implementation,
///    there is a pseudo-def at ENTRY for each variable accessed in the
///    routine, which simplifies dataflow analyses").
///
/// Variables are a unified id space: arrays first, then scalars.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SSA_SSA_H
#define GCA_SSA_SSA_H

#include "cfg/Cfg.h"

#include <span>
#include <string>
#include <vector>

namespace gca {

enum class DefKind : uint8_t {
  Entry,    ///< Pseudo-def at ENTRY.
  Regular,  ///< A source-level assignment (preserving for arrays).
  PhiEntry, ///< phi at a loop header.
  PhiExit,  ///< phi at a loop postexit.
  PhiMerge, ///< phi at an IF join.
};

const char *defKindName(DefKind Kind);

/// One SSA definition.
struct SsaDef {
  int Id = -1;
  DefKind Kind = DefKind::Entry;
  int Var = -1;                 ///< Unified variable id.
  const AssignStmt *Stmt = nullptr; ///< Regular defs only.
  int LoopId = -1;              ///< PhiEntry/PhiExit: the loop.
  int Node = -1;                ///< CFG node the def lives in.
  /// Phi parameters (def ids). PhiEntry: [pre-loop, back-edge].
  /// PhiExit: [loop-exit value, zero-trip value]. PhiMerge: [then, else].
  std::vector<int> Params;
  /// For Regular (preserving) defs: the definition of the same variable
  /// reaching immediately before this one — untouched elements flow through.
  int Prev = -1;
  /// The slot "immediately after d", where communication placed at this def
  /// would go (paper Section 4.1: "when we say communication is placed at d
  /// we mean immediately after d").
  Slot AfterSlot;
  /// The loop chain (CfgLoop ids, outermost first) enclosing the def. For
  /// PhiEntry this includes the loop itself; for PhiExit it does not.
  std::vector<int> LoopChain;
};

/// SSA form of one routine.
class Ssa {
public:
  static Ssa build(const Cfg &G);

  const Cfg &cfg() const { return *G; }

  // Variables ----------------------------------------------------------

  unsigned numVars() const { return NumVars; }
  int varOfArray(int ArrayId) const { return ArrayId; }
  int varOfScalar(int ScalarId) const { return NumArrays + ScalarId; }
  bool varIsArray(int Var) const { return Var < NumArrays; }
  std::string varName(int Var) const;

  // Definitions ----------------------------------------------------------

  unsigned numDefs() const { return static_cast<unsigned>(Defs.size()); }
  const SsaDef &def(int Id) const { return Defs[Id]; }
  int entryDef(int Var) const { return EntryDefs[Var]; }

  /// The regular def created by statement \p S (its LHS), or -1.
  int defOfStmt(const AssignStmt *S) const;

  /// The definition of \p Var visible to the RHS of \p S (before S's own
  /// def takes effect).
  int reachingBefore(const AssignStmt *S, int Var) const;

  // Regular-def index ----------------------------------------------------
  //
  // The builder numbers defs in program order, so each array's regular defs
  // sorted by id are in program order, and the defs created inside a loop
  // form one contiguous id range. Together they make "the defs of A inside
  // loop L" a slice found by two binary searches, with no walk.

  /// The regular defs of array \p ArrayId, in program order.
  std::span<const int> arrayDefs(int ArrayId) const {
    return {ArrayDefIds.data() + ArrayDefBegin[ArrayId],
            ArrayDefIds.data() + ArrayDefBegin[ArrayId + 1]};
  }

  /// The regular defs of array \p ArrayId inside loop \p LoopId (at any
  /// depth), in program order: a contiguous slice of arrayDefs().
  std::span<const int> arrayDefsInLoop(int ArrayId, int LoopId) const;

  /// Collects every *regular* def reachable backwards from \p DefId through
  /// phi parameters and preserving-def Prev links, plus a flag for the ENTRY
  /// pseudo-def: the "reaching regular defs of u" set of Section 4.2.
  /// Reference implementation: Latest(u) reads the same defs off the index
  /// (every regular def inside a loop enclosing u reaches u, and any other
  /// has common nesting level 0), and the range-analysis oracle test
  /// checks the two against each other.
  void collectReachingRegularDefs(int DefId, std::vector<int> &Out,
                                  bool &ReachesEntry) const;

  /// Common nesting level of def \p DefId and a use inside loop nest
  /// \p UseNest (CfgLoop ids outermost-first): length of the common prefix
  /// of the def's loop chain and the use's.
  int commonNestingLevel(int DefId, const std::vector<int> &UseNest) const;

  /// Debug rendering of all defs and the use->def map.
  std::string str() const;

private:
  Ssa() = default;

  const Cfg *G = nullptr;
  int NumArrays = 0;
  unsigned NumVars = 0;
  std::vector<SsaDef> Defs;
  std::vector<int> EntryDefs; ///< Var -> entry pseudo-def id.
  std::vector<int> StmtDef;   ///< Stmt id -> regular def id (-1).
  /// Stmt id -> (var -> reaching def) dense map; only assign stmts filled.
  std::vector<std::vector<int>> UseReaching;
  /// Regular array defs grouped by array, program order within each group;
  /// array A's group is [ArrayDefBegin[A], ArrayDefBegin[A + 1]).
  std::vector<int> ArrayDefIds;
  std::vector<int> ArrayDefBegin;
  /// Loop id -> the half-open range of def ids created inside the loop.
  std::vector<int> LoopDefBegin, LoopDefEnd;

  friend class SsaBuilder;
};

} // namespace gca

#endif // GCA_SSA_SSA_H
