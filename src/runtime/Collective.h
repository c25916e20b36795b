//===- runtime/Collective.h - Collective algorithm library ------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collective algorithm library behind the lowering layer (lower/Lower.h).
/// Every algorithm is expressed as a deterministic *round schedule*: an
/// ordered list of rounds, each a set of point-to-point (peer, bytes) steps
/// that are posted together and complete before the next round starts. The
/// cost model prices a round as the slowest rank's part of it — per-message
/// CPU overheads serialize on the endpoint, link capacity bounds the total
/// bytes a rank injects or drains, and the per-message saturating-bandwidth
/// wire time (with the MachineProfile's cross-node derating) bounds each
/// individual transfer — so a one-message-per-rank round prices exactly like
/// the paper's monolithic messageTime, and multi-message rounds model the
/// overlap a nonblocking post-all implementation achieves.
///
/// Algorithms: direct/fused and sequential neighbor exchange, ring,
/// recursive doubling (with the standard non-power-of-two fold), recursive
/// halving+doubling (Rabenseifner reduce-scatter/allgather, van de Geijn
/// scatter-allgather broadcast), binomial trees, and a Bine-style
/// locality-aware hierarchical tree (intra-node tree + inter-node exchange
/// among node leaders) that minimizes cross-node rounds on hierarchical
/// profiles — grounded in Bine Trees (arXiv 2508.17311) and Synthesizing
/// Optimal Collective Algorithms (arXiv 2008.08708).
///
/// Schedules carry enough structure to *verify delivery*: each chunk of
/// payload is tracked as a contribution set per rank, combining steps
/// require disjoint partial sums, and copying steps may only propagate
/// finished values. verifyDelivery() checks every algorithm against its
/// operation's delivery contract.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_RUNTIME_COLLECTIVE_H
#define GCA_RUNTIME_COLLECTIVE_H

#include "runtime/Machine.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gca {

/// Collective operation kinds the lowering classifier produces from placed
/// CommGroup patterns (shift -> neighbor exchange, reduction -> allreduce,
/// broadcast/replication -> bcast, general -> alltoallv fallback).
enum class CollOp : uint8_t {
  NeighborExchange, ///< Ghost-slab exchange with grid neighbors (shifts).
  Allreduce,        ///< Combine + replicate (the Section 6.2 reductions).
  Bcast,            ///< One-to-all replication.
  Alltoallv,        ///< Unstructured many-to-many fallback.
};

/// The algorithm family a schedule was built from. Enum order is the
/// deterministic tie-break: equal-cost candidates resolve to the smaller
/// enum value.
enum class CollAlgo : uint8_t {
  Direct,            ///< One round; every message posted at once.
  Sequential,        ///< One message per rank per round (monolithic order).
  Ring,              ///< Ring pipeline (reduce-scatter/allgather, forward).
  RecursiveDoubling, ///< Distance-doubling exchange; non-pow2 folds.
  RecursiveHalving,  ///< Halving+doubling (allreduce), scatter-allgather
                     ///< (bcast); power-of-two rank counts only.
  Binomial,          ///< Binomial tree (reduce-to-root + tree bcast).
  Bine,              ///< Locality-aware hierarchical tree: intra-node
                     ///< binomial + inter-node exchange among node leaders.
};

const char *collOpName(CollOp Op);
const char *collAlgoName(CollAlgo A);

/// One point-to-point message within a round. Chunks name the payload
/// pieces it moves (CollSchedule::ChunkBytes holds their sizes).
struct CollStep {
  int From = 0;
  int To = 0;
  /// True for combining transfers (partial sums that add at the receiver;
  /// must be contribution-disjoint), false for copies of finished values.
  bool Combine = false;
  std::vector<int> Chunks;
};

/// Steps posted together; the round completes when all of them do.
struct CollRound {
  std::vector<CollStep> Steps;
};

/// A complete deterministic round schedule for one collective operation.
struct CollSchedule {
  CollOp Op = CollOp::NeighborExchange;
  CollAlgo Algo = CollAlgo::Direct;
  int Procs = 1;
  int Root = 0;
  /// For NeighborExchange: number of directions (chunk d*Procs+r is rank
  /// r's slab for direction d). For Alltoallv: chunk s*Procs+t is the block
  /// rank s owes rank t. Otherwise chunks partition one payload.
  std::vector<double> ChunkBytes;
  std::vector<CollRound> Rounds;

  int numChunks() const { return static_cast<int>(ChunkBytes.size()); }
};

/// Round-by-round price of a schedule under a machine profile.
struct CollCost {
  double Time = 0;         ///< Seconds, sum of round times.
  double MaxSendBytes = 0; ///< Max over ranks of total bytes sent.
  double MaxMessages = 0;  ///< Max over ranks of messages sent.
  int Rounds = 0;
  int CrossRounds = 0; ///< Rounds containing a cross-node message.
  std::vector<double> RoundTimes;
};

/// Builds the \p Algo schedule of \p Op over \p Procs ranks moving \p Bytes
/// total payload. \p M supplies the node structure the Bine tree uses.
/// Returns nullopt when the algorithm is undefined for the combination
/// (e.g. RecursiveHalving on a non-power-of-two rank count, or an algorithm
/// that does not implement the operation).
std::optional<CollSchedule> buildSchedule(CollOp Op, CollAlgo Algo, int Procs,
                                          double Bytes,
                                          const MachineProfile &M,
                                          int Root = 0);

/// Builds a neighbor-exchange schedule: one slab of DirBytes[d] per rank
/// per direction d, direction d pairing rank r with its +1/-1 ring neighbor
/// (alternating by direction index). Algo Direct posts every direction in
/// one round (nonblocking post-all); Sequential fires one direction per
/// round (the monolithic order the corner-forwarding phases require).
CollSchedule exchangeSchedule(int Procs, const std::vector<double> &DirBytes,
                              CollAlgo Algo);

/// Prices \p S round by round under \p M. \p Packed charges the bcopy
/// pack/unpack of each rank's sent/received bytes per round (section-data
/// operations; reductions move bare values and skip it).
CollCost scheduleTime(const CollSchedule &S, const MachineProfile &M,
                      bool Packed);

/// True when \p Op moves strided section data and so pays pack costs.
inline bool collOpPacked(CollOp Op) { return Op != CollOp::Allreduce; }

/// Simulates the schedule's dataflow and checks the operation's delivery
/// contract: combining steps must merge disjoint partial contributions,
/// copying steps may only propagate finished values, and the final state
/// must deliver all bytes to all intended ranks. On failure returns false
/// and describes the first violation in \p Err (when non-null).
bool verifyDelivery(const CollSchedule &S, std::string *Err = nullptr);

/// The candidate algorithms the selector prices for \p Op, in preference
/// (tie-break) order.
std::vector<CollAlgo> candidateAlgos(CollOp Op);

struct CollSelection {
  CollAlgo Algo = CollAlgo::Direct;
  CollCost Cost;
};

/// Prices every candidate algorithm of \p Op for the (bytes, procs) point
/// under \p M and returns the cheapest (ties resolve to the earlier
/// candidate). nullopt only when no candidate builds (Procs < 1).
std::optional<CollSelection> selectAlgorithm(CollOp Op, int Procs,
                                             double Bytes,
                                             const MachineProfile &M);

} // namespace gca

#endif // GCA_RUNTIME_COLLECTIVE_H
