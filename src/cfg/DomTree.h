//===- cfg/DomTree.h - Dominator tree ---------------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative dominator tree (Cooper-Harvey-Kennedy) over the augmented CFG,
/// plus slot-level dominance queries. The placement algorithm's candidate
/// marking (paper Figure 9(e)) walks DomTreeParent links, and redundancy
/// elimination (Figure 9(f)) uses slot dominance ordering.
///
/// Every placement pass — Earliest/Latest walks, subset elimination,
/// redundancy probes, combining — funnels through dominates(), so queries
/// are O(1): a DFS of the finished tree assigns each node a pre/post
/// interval, and A dominates B iff B's interval nests inside A's. A
/// binary-lifting ancestor table makes the nearest common dominator of two
/// nodes O(log depth), which group placement uses to find the latest
/// common position of combined entries. The chain-walk implementations are
/// kept as *Linear reference versions for the randomized oracle test.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_CFG_DOMTREE_H
#define GCA_CFG_DOMTREE_H

#include "cfg/Cfg.h"

#include <cstdint>
#include <vector>

namespace gca {

class DomTree {
public:
  /// Computes dominators of every node reachable from G.entry().
  static DomTree compute(const Cfg &G);

  /// Computes dominators of an arbitrary digraph given successor lists
  /// (test support: the randomized dominance oracle builds graphs that no
  /// structured program produces).
  static DomTree computeFromSuccessors(
      const std::vector<std::vector<int>> &Succs, int Entry);

  /// Immediate dominator of \p Node (-1 for the entry node).
  int idom(int Node) const { return IDom[Node]; }

  /// Depth in the dominator tree (entry = 0).
  int depth(int Node) const { return Depth[Node]; }

  /// True when \p Node is reachable from the entry node.
  bool reachable(int Node) const { return DfsIn[Node] >= 0; }

  /// Reflexive node dominance: two integer compares on the DFS intervals.
  /// Unreachable nodes dominate (and are dominated by) only themselves.
  bool dominates(int A, int B) const {
    ++Queries;
    if (A == B)
      return true;
    return DfsIn[A] >= 0 && DfsIn[B] >= 0 && DfsIn[A] < DfsIn[B] &&
           DfsOut[B] <= DfsOut[A];
  }

  bool properlyDominates(int A, int B) const {
    return A != B && dominates(A, B);
  }

  /// Slot (program point) dominance: A dominates B iff every execution
  /// reaching point B has passed point A. Reflexive.
  bool slotDominates(const Slot &A, const Slot &B) const {
    if (A.Node == B.Node)
      return A.Index <= B.Index;
    return properlyDominates(A.Node, B.Node);
  }

  /// Nearest common dominator of two reachable nodes, via the dominance
  /// intervals when one dominates the other and binary lifting otherwise:
  /// O(log depth).
  int commonDominator(int A, int B) const;

  /// Children of \p Node in the dominator tree.
  const std::vector<int> &children(int Node) const {
    return Children[Node];
  }

  /// Dominance queries answered since construction — the `dom.queries`
  /// counter. A tree belongs to one compilation session, so no two threads
  /// query it at once.
  uint64_t queryCount() const { return Queries; }

  // --- Reference implementations (oracle-test support) -------------------

  /// The pre-interval chain-walk dominance test: walks idom links from B up
  /// to A's depth. Kept as the independent oracle for the randomized
  /// dominance test; the engine itself always uses dominates().
  bool dominatesLinear(int A, int B) const {
    int DA = Depth[A];
    while (Depth[B] > DA)
      B = IDom[B];
    return A == B;
  }

  /// Chain-walk nearest common dominator (oracle for commonDominator).
  int commonDominatorLinear(int A, int B) const {
    while (A != B) {
      while (Depth[A] > Depth[B])
        A = IDom[A];
      while (Depth[B] > Depth[A])
        B = IDom[B];
      if (A != B) {
        A = IDom[A];
        B = IDom[B];
      }
    }
    return A;
  }

private:
  DomTree() = default;

  static DomTree computeImpl(unsigned N, int Entry,
                             const std::vector<std::vector<int>> &Succs,
                             const std::vector<std::vector<int>> &Preds);

  /// Builds the DFS intervals and the binary-lifting table from
  /// IDom/Children (called once at the end of computeImpl).
  void buildQueryStructures(int Entry);

  std::vector<int> IDom;
  std::vector<int> Depth;
  std::vector<std::vector<int>> Children;
  /// DFS pre/post timestamps over the dominator tree; -1 for unreachable
  /// nodes (they nest inside nothing).
  std::vector<int> DfsIn;
  std::vector<int> DfsOut;
  /// Up[K][N] = the 2^K-th ancestor of N (entry saturates to itself).
  std::vector<std::vector<int>> Up;
  mutable uint64_t Queries = 0;
};

} // namespace gca

#endif // GCA_CFG_DOMTREE_H
