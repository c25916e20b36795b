//===- lower/Lower.cpp - Collective lowering of placed groups -------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "lower/Lower.h"

#include "runtime/CostModel.h"
#include "support/Stats.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

using namespace gca;

std::string PlanLowering::annotation(int Id) const {
  const GroupLowering *G = group(Id);
  if (!G)
    return std::string();
  std::string Out =
      strFormat("%s/%s", collOpName(G->Op), collAlgoName(G->Algo));
  if (G->Phase >= 0)
    Out += strFormat(
        " fused=%d",
        static_cast<int>(Phases[static_cast<size_t>(G->Phase)].GroupIds.size()));
  return Out;
}

CollOp gca::classifyGroup(const CommGroup &G) {
  switch (G.Kind) {
  case CommKind::Shift:
    return CollOp::NeighborExchange;
  case CommKind::Reduce:
    // The paper's combined reduction is a global combine plus replication
    // of the result (Section 6.2) — allreduce semantics.
    return CollOp::Allreduce;
  case CommKind::Bcast:
    return CollOp::Bcast;
  case CommKind::Local:
  case CommKind::General:
    return CollOp::Alltoallv;
  }
  return CollOp::Alltoallv;
}

namespace {

/// The slot-internal firing key ScheduleBuilder sorts by: shift groups in
/// template-dimension order first, then the other kinds.
int shiftDim(const CommGroup &G) {
  if (G.Kind != CommKind::Shift)
    return 1000 + static_cast<int>(G.Kind);
  for (unsigned K = 0; K != G.M.Offsets.size(); ++K)
    if (G.M.Offsets[K] != 0)
      return static_cast<int>(K);
  return 999;
}

/// The diagonal-decomposition ids reaching \p G through its member and
/// attached entries. Two groups sharing an id are sibling axis phases of one
/// decomposed diagonal shift and must fire in order, not fuse.
std::set<int> groupDiagIds(const CommPlan &Plan, const CommGroup &G) {
  std::set<int> Ids;
  auto Collect = [&](int EntryId) {
    if (EntryId >= 0 && EntryId < static_cast<int>(Plan.Entries.size()))
      for (int D : Plan.Entries[static_cast<size_t>(EntryId)].DiagIds)
        Ids.insert(D);
  };
  for (int E : G.Members)
    Collect(E);
  for (int E : G.Attached)
    Collect(E);
  return Ids;
}

} // namespace

CollSchedule gca::loweredSchedule(const GroupLowering &G,
                                  const MachineProfile &M, double Bytes) {
  if (G.Op == CollOp::NeighborExchange)
    return exchangeSchedule(G.Procs, {Bytes}, G.Algo);
  std::optional<CollSchedule> S =
      buildSchedule(G.Op, G.Algo, G.Procs, Bytes, M);
  assert(S && "selected algorithm no longer builds");
  return S ? std::move(*S) : CollSchedule();
}

PlanLowering gca::lowerPlan(const AnalysisContext &Ctx, CommPlan &Plan,
                            const MachineProfile &M, int NumProcs,
                            StatsRegistry *Stats) {
  PlanLowering L;
  L.MachineName = M.Name;
  L.NumProcs = std::max(1, NumProcs);
  L.Groups.resize(Plan.Groups.size());
  const std::vector<int64_t> Env(Ctx.R.loopVarNames().size(), 0);

  // The selection depends only on a collective's shape: (op, ranks, bytes)
  // for a standalone group, the per-direction bytes for an exchange run
  // (the profile and the rank count are fixed within one call). Groups
  // repeat a few shapes, so each shape is priced once.
  struct Priced {
    CollAlgo Algo = CollAlgo::Direct;
    int Rounds = 0;
    double Time = 0;
  };
  std::map<std::tuple<CollOp, int, double>, Priced> StandalonePrice;
  std::map<std::vector<double>, Priced> ExchangePrice;

  // Mirror ScheduleBuilder's slot-internal firing order.
  std::map<Slot, std::vector<int>> BySlot;
  for (const CommGroup &G : Plan.Groups)
    BySlot[G.Placement].push_back(G.Id);
  for (auto &[S, Ids] : BySlot)
    std::sort(Ids.begin(), Ids.end(), [&](int A, int B) {
      int DA = shiftDim(Plan.Groups[static_cast<size_t>(A)]);
      int DB = shiftDim(Plan.Groups[static_cast<size_t>(B)]);
      if (DA != DB)
        return DA < DB;
      return A < B;
    });

  for (auto &[SlotKey, Ids] : BySlot) {
    size_t I = 0;
    while (I != Ids.size()) {
      const CommGroup &G = Plan.Groups[static_cast<size_t>(Ids[I])];
      if (G.Kind != CommKind::Shift) {
        // Standalone collective.
        GroupLowering &GL = L.Groups[static_cast<size_t>(G.Id)];
        GL.GroupId = G.Id;
        GL.Op = classifyGroup(G);
        GL.Procs = groupCollProcs(Ctx, G, L.NumProcs);
        GL.Bytes = groupPayloadBytes(Ctx, G, L.NumProcs, Env);
        if (G.Kind == CommKind::Local) {
          // Nothing moves; keep a zero-cost direct "schedule".
          GL.Algo = CollAlgo::Direct;
        } else {
          auto [It, New] =
              StandalonePrice.try_emplace({GL.Op, GL.Procs, GL.Bytes});
          if (New)
            if (std::optional<CollSelection> Sel =
                    selectAlgorithm(GL.Op, GL.Procs, GL.Bytes, M))
              It->second = {Sel->Algo, Sel->Cost.Rounds, Sel->Cost.Time};
          GL.Algo = It->second.Algo;
          GL.Rounds = It->second.Rounds;
          GL.NominalTime = It->second.Time;
        }
        ++I;
        continue;
      }

      // Maximal run of same-slot shift groups free of shared diagonal ids:
      // these may post as one multi-direction exchange round without
      // breaking the corner-forwarding phase order.
      size_t End = I;
      std::set<int> RunDiags;
      while (End != Ids.size()) {
        const CommGroup &Cand = Plan.Groups[static_cast<size_t>(Ids[End])];
        if (Cand.Kind != CommKind::Shift)
          break;
        std::set<int> CandDiags = groupDiagIds(Plan, Cand);
        bool Clash = false;
        for (int D : CandDiags)
          Clash = Clash || RunDiags.count(D);
        if (Clash)
          break;
        RunDiags.insert(CandDiags.begin(), CandDiags.end());
        ++End;
      }
      if (End == I)
        End = I + 1; // A group clashing immediately still lowers alone.

      std::vector<double> DirBytes;
      for (size_t K = I; K != End; ++K)
        DirBytes.push_back(groupPayloadBytes(
            Ctx, Plan.Groups[static_cast<size_t>(Ids[K])], L.NumProcs, Env));

      // Price the fused posting against the sequential firing; ties go to
      // the fused form (candidate order).
      auto [It, New] = ExchangePrice.try_emplace(DirBytes);
      Priced &Best = It->second;
      if (New) {
        bool HaveBest = false;
        for (CollAlgo A : candidateAlgos(CollOp::NeighborExchange)) {
          CollSchedule S = exchangeSchedule(L.NumProcs, DirBytes, A);
          CollCost C = scheduleTime(S, M, collOpPacked(S.Op));
          if (!HaveBest || C.Time < Best.Time) {
            Best = {A, C.Rounds, C.Time};
            HaveBest = true;
          }
        }
      }

      int PhaseId = -1;
      if (End - I > 1) {
        PhaseId = static_cast<int>(L.Phases.size());
        LoweringPhase P;
        P.Placement = SlotKey;
        for (size_t K = I; K != End; ++K)
          P.GroupIds.push_back(Ids[K]);
        P.Algo = Best.Algo;
        L.Phases.push_back(std::move(P));
      }
      for (size_t K = I; K != End; ++K) {
        GroupLowering &GL = L.Groups[static_cast<size_t>(Ids[K])];
        GL.GroupId = Ids[K];
        GL.Op = CollOp::NeighborExchange;
        GL.Algo = Best.Algo;
        GL.Procs = L.NumProcs;
        GL.Bytes = DirBytes[K - I];
        GL.Rounds = Best.Rounds;
        GL.Phase = PhaseId;
        GL.PhaseLead = K == I;
        GL.NominalTime = K == I ? Best.Time : 0;
      }
      I = End;
    }
  }

  // Record the choices, in group-id order, and tally the counter family
  // per (op, algo).
  std::map<std::pair<CollOp, CollAlgo>, int64_t> Tally;
  for (const CommGroup &G : Plan.Groups) {
    const GroupLowering &GL = L.Groups[static_cast<size_t>(G.Id)];
    int Fused =
        GL.Phase >= 0
            ? static_cast<int>(
                  L.Phases[static_cast<size_t>(GL.Phase)].GroupIds.size())
            : 0;
    Plan.Decisions.push_back(DecisionEvent::loweredAs(
        G.Id, G.Placement, collOpName(GL.Op), collAlgoName(GL.Algo),
        GL.Procs, std::llround(GL.Bytes), GL.Rounds, Fused));
    ++Tally[{GL.Op, GL.Algo}];
  }
  if (Stats) {
    if (!Plan.Groups.empty())
      Stats->add("lower.collective.groups",
                 static_cast<int64_t>(Plan.Groups.size()));
    for (const auto &[Shape, N] : Tally) {
      Stats->add(std::string("lower.collective.op.") + collOpName(Shape.first),
                 N);
      Stats->add(std::string("lower.collective.algo.") +
                     collAlgoName(Shape.second),
                 N);
    }
    if (!L.Phases.empty())
      Stats->add("lower.collective.fused-phases",
                 static_cast<int64_t>(L.Phases.size()));
  }
  return L;
}
