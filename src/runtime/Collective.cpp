//===- runtime/Collective.cpp - Collective algorithm library --------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "runtime/Collective.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace gca;

const char *gca::collOpName(CollOp Op) {
  switch (Op) {
  case CollOp::NeighborExchange:
    return "neighbor-exchange";
  case CollOp::Allreduce:
    return "allreduce";
  case CollOp::Bcast:
    return "bcast";
  case CollOp::Alltoallv:
    return "alltoallv";
  }
  return "?";
}

const char *gca::collAlgoName(CollAlgo A) {
  switch (A) {
  case CollAlgo::Direct:
    return "direct";
  case CollAlgo::Sequential:
    return "sequential";
  case CollAlgo::Ring:
    return "ring";
  case CollAlgo::RecursiveDoubling:
    return "recursive-doubling";
  case CollAlgo::RecursiveHalving:
    return "recursive-halving";
  case CollAlgo::Binomial:
    return "binomial";
  case CollAlgo::Bine:
    return "bine";
  }
  return "?";
}

namespace {

int floorLog2(int N) {
  int K = 0;
  while ((2 << K) <= N)
    ++K;
  return K; // 2^K <= N < 2^(K+1), N >= 1.
}

int ceilLog2(int N) {
  int K = 0;
  while ((1 << K) < N)
    ++K;
  return K;
}

bool isPow2(int N) { return N >= 1 && (N & (N - 1)) == 0; }

void addStep(CollRound &R, int From, int To, bool Combine,
             std::vector<int> Chunks) {
  CollStep S;
  S.From = From;
  S.To = To;
  S.Combine = Combine;
  S.Chunks = std::move(Chunks);
  R.Steps.push_back(std::move(S));
}

std::vector<int> chunkRange(int Lo, int N) {
  std::vector<int> C(static_cast<size_t>(N));
  std::iota(C.begin(), C.end(), Lo);
  return C;
}

/// Merges per-node round lists into one lockstep list: round j of the
/// result carries round j of every input (nodes with shorter lists simply
/// sit out the later rounds).
std::vector<CollRound> zipRounds(std::vector<std::vector<CollRound>> Lists) {
  size_t Max = 0;
  for (const auto &L : Lists)
    Max = std::max(Max, L.size());
  std::vector<CollRound> Out(Max);
  for (auto &L : Lists)
    for (size_t J = 0; J != L.size(); ++J)
      for (CollStep &S : L[J].Steps)
        Out[J].Steps.push_back(std::move(S));
  return Out;
}

/// Binomial-tree reduction over \p Ranks, accumulating at Ranks[0].
std::vector<CollRound> binomialReduceRounds(const std::vector<int> &Ranks,
                                            int Chunk) {
  int L = static_cast<int>(Ranks.size());
  std::vector<CollRound> Rounds;
  for (int K = 0; K != ceilLog2(std::max(1, L)); ++K) {
    CollRound R;
    for (int I = 1 << K; I < L; I += 2 << K)
      addStep(R, Ranks[I], Ranks[I - (1 << K)], /*Combine=*/true, {Chunk});
    Rounds.push_back(std::move(R));
  }
  return Rounds;
}

/// Binomial-tree broadcast of \p Chunk from Ranks[0] over \p Ranks.
std::vector<CollRound> binomialBcastRounds(const std::vector<int> &Ranks,
                                           int Chunk) {
  int L = static_cast<int>(Ranks.size());
  std::vector<CollRound> Rounds;
  for (int K = 0; K != ceilLog2(std::max(1, L)); ++K) {
    CollRound R;
    for (int I = 0; I < (1 << K) && I + (1 << K) < L; ++I)
      addStep(R, Ranks[I], Ranks[I + (1 << K)], /*Combine=*/false, {Chunk});
    Rounds.push_back(std::move(R));
  }
  return Rounds;
}

/// Recursive-doubling allreduce of \p Chunk over \p Ranks, with the
/// standard fold for non-power-of-two counts (extras pre-combine into a
/// power-of-two core, then receive the finished value back).
std::vector<CollRound> recursiveDoublingRounds(const std::vector<int> &Ranks,
                                               int Chunk) {
  int L = static_cast<int>(Ranks.size());
  std::vector<CollRound> Rounds;
  if (L <= 1)
    return Rounds;
  int Q = 1 << floorLog2(L);
  int Rem = L - Q;
  if (Rem) {
    CollRound R;
    for (int I = Q; I < L; ++I)
      addStep(R, Ranks[I], Ranks[I - Q], /*Combine=*/true, {Chunk});
    Rounds.push_back(std::move(R));
  }
  for (int K = 0; (1 << K) < Q; ++K) {
    CollRound R;
    for (int I = 0; I != Q; ++I)
      addStep(R, Ranks[I], Ranks[I ^ (1 << K)], /*Combine=*/true, {Chunk});
    Rounds.push_back(std::move(R));
  }
  if (Rem) {
    CollRound R;
    for (int I = 0; I != Rem; ++I)
      addStep(R, Ranks[I], Ranks[I + Q], /*Combine=*/false, {Chunk});
    Rounds.push_back(std::move(R));
  }
  return Rounds;
}

/// The node partition of ranks 0..P-1 under \p M (every rank its own node
/// on flat machines).
std::vector<std::vector<int>> nodePartition(int P, const MachineProfile &M) {
  int RPN = std::max(1, M.RanksPerNode);
  std::vector<std::vector<int>> Nodes;
  for (int R = 0; R != P; ++R) {
    if (R % RPN == 0)
      Nodes.emplace_back();
    Nodes.back().push_back(R);
  }
  return Nodes;
}

std::optional<CollSchedule> buildAllreduce(CollAlgo Algo, int P, double Bytes,
                                           const MachineProfile &M) {
  CollSchedule S;
  S.Op = CollOp::Allreduce;
  S.Algo = Algo;
  S.Procs = P;
  switch (Algo) {
  case CollAlgo::Ring: {
    int C = std::max(1, P);
    S.ChunkBytes.assign(static_cast<size_t>(C), Bytes / C);
    // Reduce-scatter ring: after P-1 rounds rank r owns chunk (r+1)%P.
    for (int T = 0; T + 1 < P; ++T) {
      CollRound R;
      for (int Rk = 0; Rk != P; ++Rk)
        addStep(R, Rk, (Rk + 1) % P, /*Combine=*/true,
                {((Rk - T) % P + P) % P});
      S.Rounds.push_back(std::move(R));
    }
    // Allgather ring: pass finished chunks around.
    for (int T = 0; T + 1 < P; ++T) {
      CollRound R;
      for (int Rk = 0; Rk != P; ++Rk)
        addStep(R, Rk, (Rk + 1) % P, /*Combine=*/false,
                {((Rk + 1 - T) % P + P) % P});
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  case CollAlgo::RecursiveDoubling: {
    S.ChunkBytes.assign(1, Bytes);
    std::vector<int> Ranks(static_cast<size_t>(P));
    std::iota(Ranks.begin(), Ranks.end(), 0);
    S.Rounds = recursiveDoublingRounds(Ranks, 0);
    return S;
  }
  case CollAlgo::RecursiveHalving: {
    if (!isPow2(P))
      return std::nullopt;
    int C = P;
    S.ChunkBytes.assign(static_cast<size_t>(C), Bytes / C);
    if (P == 1)
      return S;
    int Log = floorLog2(P);
    std::vector<int> Lo(static_cast<size_t>(P), 0), N(static_cast<size_t>(P),
                                                      P);
    // Halving: combine at distance P/2, P/4, ..., each rank keeping the
    // half of its chunk interval its side of the pair owns.
    for (int K = 0; K != Log; ++K) {
      int H = P >> (K + 1);
      CollRound R;
      std::vector<int> NewLo = Lo;
      for (int Rk = 0; Rk != P; ++Rk) {
        int Half = N[Rk] / 2;
        int SendLo = (Rk & H) ? Lo[Rk] : Lo[Rk] + Half;
        NewLo[Rk] = (Rk & H) ? Lo[Rk] + Half : Lo[Rk];
        addStep(R, Rk, Rk ^ H, /*Combine=*/true, chunkRange(SendLo, Half));
      }
      S.Rounds.push_back(std::move(R));
      Lo = std::move(NewLo);
      for (int Rk = 0; Rk != P; ++Rk)
        N[Rk] /= 2;
    }
    // Doubling: allgather back along the same pairs in reverse.
    for (int K = Log - 1; K >= 0; --K) {
      int H = P >> (K + 1);
      CollRound R;
      for (int Rk = 0; Rk != P; ++Rk)
        addStep(R, Rk, Rk ^ H, /*Combine=*/false, chunkRange(Lo[Rk], N[Rk]));
      S.Rounds.push_back(std::move(R));
      for (int Rk = 0; Rk != P; ++Rk)
        Lo[Rk] = std::min(Lo[Rk], Lo[Rk ^ H]);
      for (int Rk = 0; Rk != P; ++Rk)
        N[Rk] *= 2;
    }
    return S;
  }
  case CollAlgo::Binomial: {
    S.ChunkBytes.assign(1, Bytes);
    std::vector<int> Ranks(static_cast<size_t>(P));
    std::iota(Ranks.begin(), Ranks.end(), 0);
    std::vector<CollRound> Reduce = binomialReduceRounds(Ranks, 0);
    std::vector<CollRound> Bcast = binomialBcastRounds(Ranks, 0);
    S.Rounds = std::move(Reduce);
    S.Rounds.insert(S.Rounds.end(), Bcast.begin(), Bcast.end());
    return S;
  }
  case CollAlgo::Bine: {
    // Hierarchical: binomial reduce within every node, recursive-doubling
    // allreduce among the node leaders (the only cross-node rounds), then
    // binomial bcast back down within every node.
    S.ChunkBytes.assign(1, Bytes);
    std::vector<std::vector<int>> Nodes = nodePartition(P, M);
    std::vector<std::vector<CollRound>> Intra;
    std::vector<int> Leaders;
    for (const auto &Node : Nodes) {
      Intra.push_back(binomialReduceRounds(Node, 0));
      Leaders.push_back(Node.front());
    }
    S.Rounds = zipRounds(std::move(Intra));
    std::vector<CollRound> Mid = recursiveDoublingRounds(Leaders, 0);
    S.Rounds.insert(S.Rounds.end(), Mid.begin(), Mid.end());
    std::vector<std::vector<CollRound>> Down;
    for (const auto &Node : Nodes)
      Down.push_back(binomialBcastRounds(Node, 0));
    std::vector<CollRound> Tail = zipRounds(std::move(Down));
    S.Rounds.insert(S.Rounds.end(), Tail.begin(), Tail.end());
    return S;
  }
  default:
    return std::nullopt;
  }
}

std::optional<CollSchedule> buildBcast(CollAlgo Algo, int P, double Bytes,
                                       const MachineProfile &M, int Root) {
  CollSchedule S;
  S.Op = CollOp::Bcast;
  S.Algo = Algo;
  S.Procs = P;
  S.Root = Root;
  auto Rank = [&](int X) { return (Root + X) % std::max(1, P); };
  switch (Algo) {
  case CollAlgo::Ring: {
    S.ChunkBytes.assign(1, Bytes);
    for (int T = 0; T + 1 < P; ++T) {
      CollRound R;
      addStep(R, Rank(T), Rank(T + 1), /*Combine=*/false, {0});
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  case CollAlgo::Binomial: {
    S.ChunkBytes.assign(1, Bytes);
    std::vector<int> Ranks(static_cast<size_t>(std::max(1, P)));
    for (int I = 0; I != std::max(1, P); ++I)
      Ranks[static_cast<size_t>(I)] = Rank(I);
    S.Rounds = binomialBcastRounds(Ranks, 0);
    return S;
  }
  case CollAlgo::RecursiveHalving: {
    // van de Geijn large-message broadcast: binomial scatter of P chunks,
    // then recursive-doubling allgather (all in root-relative space).
    if (!isPow2(P))
      return std::nullopt;
    S.ChunkBytes.assign(static_cast<size_t>(P), Bytes / P);
    if (P == 1)
      return S;
    int Log = floorLog2(P);
    for (int K = 0; K != Log; ++K) {
      int H = P >> (K + 1);
      CollRound R;
      for (int Holder = 0; Holder < P; Holder += P >> K)
        addStep(R, Rank(Holder), Rank(Holder + H), /*Combine=*/false,
                chunkRange(Holder + H, H));
      S.Rounds.push_back(std::move(R));
    }
    for (int K = 0; K != Log; ++K) {
      CollRound R;
      for (int Rp = 0; Rp != P; ++Rp) {
        int Base = Rp & ~((1 << K) - 1);
        addStep(R, Rank(Rp), Rank(Rp ^ (1 << K)), /*Combine=*/false,
                chunkRange(Base, 1 << K));
      }
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  case CollAlgo::Bine: {
    // Root to its node leader, binomial over leaders, then binomial down
    // within every node.
    S.ChunkBytes.assign(1, Bytes);
    std::vector<std::vector<int>> Nodes = nodePartition(P, M);
    int RootNode = M.RanksPerNode <= 1 ? Root : Root / M.RanksPerNode;
    std::vector<int> Leaders;
    for (const auto &Node : Nodes)
      Leaders.push_back(Node.front());
    if (Root != Leaders[static_cast<size_t>(RootNode)]) {
      CollRound R;
      addStep(R, Root, Leaders[static_cast<size_t>(RootNode)],
              /*Combine=*/false, {0});
      S.Rounds.push_back(std::move(R));
    }
    // Rotate the leader list so the root's leader broadcasts first.
    std::vector<int> Order;
    int L = static_cast<int>(Leaders.size());
    for (int I = 0; I != L; ++I)
      Order.push_back(Leaders[static_cast<size_t>((RootNode + I) % L)]);
    std::vector<CollRound> Mid = binomialBcastRounds(Order, 0);
    S.Rounds.insert(S.Rounds.end(), Mid.begin(), Mid.end());
    std::vector<std::vector<CollRound>> Down;
    for (const auto &Node : Nodes)
      Down.push_back(binomialBcastRounds(Node, 0));
    std::vector<CollRound> Tail = zipRounds(std::move(Down));
    S.Rounds.insert(S.Rounds.end(), Tail.begin(), Tail.end());
    return S;
  }
  default:
    return std::nullopt;
  }
}

std::optional<CollSchedule> buildAlltoall(CollAlgo Algo, int P, double Bytes) {
  CollSchedule S;
  S.Op = CollOp::Alltoallv;
  S.Algo = Algo;
  S.Procs = P;
  int Pairs = std::max(1, P * (P - 1));
  S.ChunkBytes.assign(static_cast<size_t>(std::max(1, P * P)), Bytes / Pairs);
  // Chunk s*P+t is the block rank s owes rank t; diagonal chunks stay local
  // and cost nothing.
  auto Chunk = [&](int From, int To) { return From * P + To; };
  switch (Algo) {
  case CollAlgo::Direct: {
    if (P > 1) {
      CollRound R;
      for (int F = 0; F != P; ++F)
        for (int T = 0; T != P; ++T)
          if (F != T)
            addStep(R, F, T, /*Combine=*/false, {Chunk(F, T)});
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  case CollAlgo::Sequential: {
    // Pairwise exchange: round t pairs every rank with the rank t beyond it.
    for (int T = 1; T < P; ++T) {
      CollRound R;
      for (int F = 0; F != P; ++F)
        addStep(R, F, (F + T) % P, /*Combine=*/false, {Chunk(F, (F + T) % P)});
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  case CollAlgo::Ring: {
    // Every block moves one hop per round until it reaches its destination;
    // a rank's forwards to its successor merge into one message per round.
    for (int T = 0; T + 1 < P; ++T) {
      CollRound R;
      for (int Pos = 0; Pos != P; ++Pos) {
        std::vector<int> Moving;
        for (int Src = 0; Src != P; ++Src) {
          if ((Src + T) % P != Pos)
            continue;
          for (int Dst = 0; Dst != P; ++Dst)
            if (Src != Dst && (Dst - Src + P) % P > T)
              Moving.push_back(Chunk(Src, Dst));
        }
        if (!Moving.empty())
          addStep(R, Pos, (Pos + 1) % P, /*Combine=*/false,
                  std::move(Moving));
      }
      S.Rounds.push_back(std::move(R));
    }
    return S;
  }
  default:
    return std::nullopt;
  }
}

} // namespace

CollSchedule gca::exchangeSchedule(int Procs,
                                   const std::vector<double> &DirBytes,
                                   CollAlgo Algo) {
  CollSchedule S;
  S.Op = CollOp::NeighborExchange;
  S.Algo = Algo;
  S.Procs = std::max(1, Procs);
  int P = S.Procs;
  int D = static_cast<int>(DirBytes.size());
  S.ChunkBytes.assign(static_cast<size_t>(D) * P, 0);
  for (int Dir = 0; Dir != D; ++Dir)
    for (int R = 0; R != P; ++R)
      S.ChunkBytes[static_cast<size_t>(Dir) * P + R] = DirBytes[Dir];
  if (P < 2)
    return S;
  auto Peer = [&](int R, int Dir) {
    int Delta = Dir % 2 == 0 ? 1 : -1;
    return ((R + Delta) % P + P) % P;
  };
  if (Algo == CollAlgo::Direct) {
    CollRound Round;
    for (int Dir = 0; Dir != D; ++Dir)
      for (int R = 0; R != P; ++R)
        addStep(Round, R, Peer(R, Dir), /*Combine=*/false, {Dir * P + R});
    if (!Round.Steps.empty())
      S.Rounds.push_back(std::move(Round));
    return S;
  }
  // Sequential: one direction per round, the monolithic firing order.
  for (int Dir = 0; Dir != D; ++Dir) {
    CollRound Round;
    for (int R = 0; R != P; ++R)
      addStep(Round, R, Peer(R, Dir), /*Combine=*/false, {Dir * P + R});
    S.Rounds.push_back(std::move(Round));
  }
  return S;
}

std::optional<CollSchedule> gca::buildSchedule(CollOp Op, CollAlgo Algo,
                                               int Procs, double Bytes,
                                               const MachineProfile &M,
                                               int Root) {
  if (Procs < 1)
    return std::nullopt;
  switch (Op) {
  case CollOp::NeighborExchange:
    if (Algo != CollAlgo::Direct && Algo != CollAlgo::Sequential)
      return std::nullopt;
    return exchangeSchedule(Procs, {Bytes}, Algo);
  case CollOp::Allreduce:
    return buildAllreduce(Algo, Procs, Bytes, M);
  case CollOp::Bcast:
    return buildBcast(Algo, Procs, Bytes, M, Root);
  case CollOp::Alltoallv:
    return buildAlltoall(Algo, Procs, Bytes);
  }
  return std::nullopt;
}

CollCost gca::scheduleTime(const CollSchedule &S, const MachineProfile &M,
                           bool Packed) {
  CollCost C;
  C.Rounds = static_cast<int>(S.Rounds.size());
  int P = std::max(1, S.Procs);
  std::vector<double> Endpoint(static_cast<size_t>(P));
  std::vector<double> Inject(static_cast<size_t>(P));
  std::vector<double> Drain(static_cast<size_t>(P));
  std::vector<double> Wire(static_cast<size_t>(P));
  std::vector<double> SendB(static_cast<size_t>(P));
  std::vector<double> RecvB(static_cast<size_t>(P));
  std::vector<double> TotalSendB(static_cast<size_t>(P));
  std::vector<double> TotalMsgs(static_cast<size_t>(P));
  for (const CollRound &Round : S.Rounds) {
    std::fill(Endpoint.begin(), Endpoint.end(), 0.0);
    std::fill(Inject.begin(), Inject.end(), 0.0);
    std::fill(Drain.begin(), Drain.end(), 0.0);
    std::fill(Wire.begin(), Wire.end(), 0.0);
    std::fill(SendB.begin(), SendB.end(), 0.0);
    std::fill(RecvB.begin(), RecvB.end(), 0.0);
    bool Cross = false;
    for (const CollStep &St : Round.Steps) {
      double Bytes = 0;
      for (int Ch : St.Chunks)
        Bytes += S.ChunkBytes[static_cast<size_t>(Ch)];
      size_t F = static_cast<size_t>(St.From), T = static_cast<size_t>(St.To);
      // Per-message CPU costs serialize on each endpoint; the bandwidth
      // terms overlap across a rank's messages up to its link capacity.
      Endpoint[F] += M.SendOverhead;
      Endpoint[T] += M.RecvOverhead;
      Inject[F] += Bytes / M.injectBandwidth(Bytes);
      Drain[T] += Bytes / M.PeakBandwidth;
      double W = M.wireTime(Bytes, St.From, St.To);
      Wire[F] = std::max(Wire[F], W);
      Wire[T] = std::max(Wire[T], W);
      SendB[F] += Bytes;
      RecvB[T] += Bytes;
      TotalSendB[F] += Bytes;
      TotalMsgs[F] += 1;
      Cross = Cross || M.crossNode(St.From, St.To);
    }
    double RoundTime = 0;
    for (size_t R = 0; R != static_cast<size_t>(P); ++R) {
      double T = Endpoint[R] +
                 std::max({Inject[R], Drain[R], Wire[R]});
      if (Packed)
        T += M.packTime(SendB[R]) + M.packTime(RecvB[R]);
      RoundTime = std::max(RoundTime, T);
    }
    C.Time += RoundTime;
    C.RoundTimes.push_back(RoundTime);
    if (Cross)
      ++C.CrossRounds;
  }
  for (size_t R = 0; R != static_cast<size_t>(P); ++R) {
    C.MaxSendBytes = std::max(C.MaxSendBytes, TotalSendB[R]);
    C.MaxMessages = std::max(C.MaxMessages, TotalMsgs[R]);
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Delivery verification
//===----------------------------------------------------------------------===//

namespace {

/// Contribution bitsets: one word-vector per (rank, chunk).
class DeliveryState {
public:
  DeliveryState(int Procs, int Chunks)
      : Procs(Procs), Words((Procs + 63) / 64),
        Bits(static_cast<size_t>(Procs) * Chunks * Words, 0) {}

  uint64_t *set(int Rank, int Chunk) {
    return Bits.data() + (static_cast<size_t>(Rank) * ChunksPer() + Chunk) *
                             Words;
  }
  const uint64_t *set(int Rank, int Chunk) const {
    return const_cast<DeliveryState *>(this)->set(Rank, Chunk);
  }

  void add(int Rank, int Chunk, int Contributor) {
    set(Rank, Chunk)[Contributor / 64] |= 1ull << (Contributor % 64);
  }
  bool empty(const uint64_t *W) const {
    for (int I = 0; I != Words; ++I)
      if (W[I])
        return false;
    return true;
  }
  bool intersects(const uint64_t *A, const uint64_t *B) const {
    for (int I = 0; I != Words; ++I)
      if (A[I] & B[I])
        return true;
    return false;
  }
  bool equal(const uint64_t *A, const uint64_t *B) const {
    for (int I = 0; I != Words; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  bool contains(const uint64_t *A, const uint64_t *B) const {
    // A contains every bit of B.
    for (int I = 0; I != Words; ++I)
      if ((B[I] & ~A[I]) != 0)
        return false;
    return true;
  }
  void unionInto(uint64_t *A, const uint64_t *B) {
    for (int I = 0; I != Words; ++I)
      A[I] |= B[I];
  }

  std::vector<uint64_t> snapshot() const { return Bits; }
  const uint64_t *snapshotSet(const std::vector<uint64_t> &Snap, int Rank,
                              int Chunk) const {
    return Snap.data() +
           (static_cast<size_t>(Rank) * ChunksPer() + Chunk) * Words;
  }

  int words() const { return Words; }

private:
  size_t ChunksPer() const { return Bits.size() / Words / Procs; }
  int Procs;
  int Words;
  std::vector<uint64_t> Bits;
};

} // namespace

bool gca::verifyDelivery(const CollSchedule &S, std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  int P = std::max(1, S.Procs);
  int C = std::max(1, S.numChunks());
  DeliveryState State(P, C);
  int Words = State.words();

  // Initial possession and the finished value each chunk must reach.
  std::vector<uint64_t> Required(static_cast<size_t>(C) * Words, 0);
  auto RequiredSet = [&](int Chunk) {
    return Required.data() + static_cast<size_t>(Chunk) * Words;
  };
  auto SetBit = [&](uint64_t *W, int Bit) {
    W[Bit / 64] |= 1ull << (Bit % 64);
  };
  switch (S.Op) {
  case CollOp::NeighborExchange:
    for (int Ch = 0; Ch != C; ++Ch) {
      State.add(Ch % P, Ch, Ch % P);
      SetBit(RequiredSet(Ch), Ch % P);
    }
    break;
  case CollOp::Allreduce:
    for (int R = 0; R != P; ++R)
      for (int Ch = 0; Ch != C; ++Ch)
        State.add(R, Ch, R);
    for (int Ch = 0; Ch != C; ++Ch)
      for (int R = 0; R != P; ++R)
        SetBit(RequiredSet(Ch), R);
    break;
  case CollOp::Bcast:
    for (int Ch = 0; Ch != C; ++Ch) {
      State.add(S.Root, Ch, S.Root);
      SetBit(RequiredSet(Ch), S.Root);
    }
    break;
  case CollOp::Alltoallv:
    for (int Ch = 0; Ch != C; ++Ch) {
      State.add(Ch / P, Ch, Ch / P);
      SetBit(RequiredSet(Ch), Ch / P);
    }
    break;
  }

  for (size_t RIdx = 0; RIdx != S.Rounds.size(); ++RIdx) {
    const CollRound &Round = S.Rounds[RIdx];
    std::vector<uint64_t> Snap = State.snapshot();
    for (const CollStep &St : Round.Steps) {
      if (St.From < 0 || St.From >= P || St.To < 0 || St.To >= P)
        return Fail(strFormat("round %zu: step endpoints (%d -> %d) out of "
                              "range",
                              RIdx, St.From, St.To));
      for (int Ch : St.Chunks) {
        if (Ch < 0 || Ch >= C)
          return Fail(strFormat("round %zu: chunk %d out of range", RIdx, Ch));
        const uint64_t *Sender = State.snapshotSet(Snap, St.From, Ch);
        if (State.empty(Sender))
          return Fail(strFormat(
              "round %zu: rank %d sends chunk %d it does not hold", RIdx,
              St.From, Ch));
        uint64_t *Recv = State.set(St.To, Ch);
        if (St.Combine) {
          if (State.intersects(Recv, Sender))
            return Fail(strFormat("round %zu: combine of chunk %d at rank %d "
                                  "double-counts a contribution",
                                  RIdx, Ch, St.To));
        } else {
          if (!State.equal(Sender, RequiredSet(Ch)))
            return Fail(strFormat("round %zu: rank %d copies chunk %d before "
                                  "it is finished",
                                  RIdx, St.From, Ch));
          if (!State.contains(Sender, Recv))
            return Fail(strFormat("round %zu: copy of chunk %d to rank %d "
                                  "would drop contributions",
                                  RIdx, Ch, St.To));
        }
        State.unionInto(Recv, Sender);
      }
    }
  }

  // Final contract.
  switch (S.Op) {
  case CollOp::NeighborExchange: {
    if (P < 2)
      return true;
    int D = C / P;
    for (int Dir = 0; Dir != D; ++Dir)
      for (int R = 0; R != P; ++R) {
        int Delta = Dir % 2 == 0 ? 1 : -1;
        int Peer = ((R + Delta) % P + P) % P;
        int Ch = Dir * P + R;
        if (!State.contains(State.set(Peer, Ch), RequiredSet(Ch)))
          return Fail(strFormat(
              "direction %d: rank %d never received rank %d's slab", Dir,
              Peer, R));
      }
    return true;
  }
  case CollOp::Allreduce:
    for (int R = 0; R != P; ++R)
      for (int Ch = 0; Ch != C; ++Ch)
        if (!State.equal(State.set(R, Ch), RequiredSet(Ch)))
          return Fail(strFormat(
              "rank %d ends with a partial reduction of chunk %d", R, Ch));
    return true;
  case CollOp::Bcast:
    for (int R = 0; R != P; ++R)
      for (int Ch = 0; Ch != C; ++Ch)
        if (!State.contains(State.set(R, Ch), RequiredSet(Ch)))
          return Fail(
              strFormat("rank %d never received broadcast chunk %d", R, Ch));
    return true;
  case CollOp::Alltoallv:
    for (int Ch = 0; Ch != C; ++Ch) {
      if (Ch / P == Ch % P)
        continue; // Diagonal blocks stay local.
      if (!State.contains(State.set(Ch % P, Ch), RequiredSet(Ch)))
        return Fail(strFormat("rank %d never received block %d -> %d",
                              Ch % P, Ch / P, Ch % P));
    }
    return true;
  }
  return true;
}

std::vector<CollAlgo> gca::candidateAlgos(CollOp Op) {
  switch (Op) {
  case CollOp::NeighborExchange:
    return {CollAlgo::Direct, CollAlgo::Sequential};
  case CollOp::Allreduce:
    return {CollAlgo::Ring, CollAlgo::RecursiveDoubling,
            CollAlgo::RecursiveHalving, CollAlgo::Binomial, CollAlgo::Bine};
  case CollOp::Bcast:
    return {CollAlgo::Ring, CollAlgo::RecursiveHalving, CollAlgo::Binomial,
            CollAlgo::Bine};
  case CollOp::Alltoallv:
    return {CollAlgo::Direct, CollAlgo::Sequential, CollAlgo::Ring};
  }
  return {};
}

std::optional<CollSelection> gca::selectAlgorithm(CollOp Op, int Procs,
                                                  double Bytes,
                                                  const MachineProfile &M) {
  std::optional<CollSelection> Best;
  for (CollAlgo A : candidateAlgos(Op)) {
    std::optional<CollSchedule> S = buildSchedule(Op, A, Procs, Bytes, M);
    if (!S)
      continue;
    CollCost C = scheduleTime(*S, M, collOpPacked(Op));
    if (!Best || C.Time < Best->Cost.Time) {
      Best = CollSelection();
      Best->Algo = A;
      Best->Cost = std::move(C);
    }
  }
  return Best;
}
