//===- tests/test_collective.cpp - collective lowering tests --------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The collective algorithm library and the lowering pass: delivery proofs
// for every algorithm (each operation's contract holds at pow2, non-pow2,
// and hierarchical rank counts), selector optimality properties, the
// machine-profile registry, exact parity of the direct exchange with the
// monolithic shift cost, decision-log bookkeeping, annotated listings, and
// the lowered-vs-monolithic simulation wins the PR claims.
//
//===----------------------------------------------------------------------===//

#include "driver/Compile.h"
#include "lower/Lower.h"
#include "lower/Schedule.h"
#include "runtime/Collective.h"
#include "runtime/CostModel.h"
#include "runtime/Simulate.h"
#include "support/Stats.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace gca;

namespace {

RoutineResult analyzed(const std::string &Src, Strategy S, int64_t N,
                       const char *Machine = "sp2", int Procs = 16) {
  CompileOptions Opts;
  Opts.Placement.Strat = S;
  Opts.Placement.NumProcs = Procs;
  Opts.Machine = Machine;
  Opts.Params["n"] = N;
  Opts.Params["nsteps"] = 2;
  static std::vector<std::unique_ptr<CompileResult>> Keep;
  Keep.push_back(std::make_unique<CompileResult>(compileSource(Src, Opts)));
  EXPECT_TRUE(Keep.back()->Ok) << Keep.back()->Errors;
  return std::move(Keep.back()->Routines[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Machine-profile registry.
//===----------------------------------------------------------------------===//

TEST(MachineRegistry, ByNameRoundTrips) {
  for (const std::string &Name : MachineProfile::listProfiles()) {
    auto M = MachineProfile::byName(Name);
    ASSERT_TRUE(M.has_value()) << Name;
    EXPECT_FALSE(M->Name.empty());
  }
  EXPECT_FALSE(MachineProfile::byName("paragon").has_value());
  // Case-insensitive, and the legacy profiles match their constructors.
  EXPECT_EQ(MachineProfile::byName("SP2")->Name, MachineProfile::sp2().Name);
  EXPECT_EQ(MachineProfile::byName("now")->PeakBandwidth,
            MachineProfile::now().PeakBandwidth);
}

TEST(MachineRegistry, HierarchicalProfilesHaveNodeStructure) {
  auto F = MachineProfile::byName("fattree");
  auto G = MachineProfile::byName("gpu");
  ASSERT_TRUE(F && G);
  EXPECT_GT(F->RanksPerNode, 1);
  EXPECT_GT(G->RanksPerNode, 1);
  // Cross-node messages must cost strictly more than intra-node ones.
  EXPECT_GT(G->wireTime(4096, 0, G->RanksPerNode),
            G->wireTime(4096, 0, 1));
}

//===----------------------------------------------------------------------===//
// Delivery proofs: every algorithm delivers all bytes, for every operation
// it implements, across pow2, non-pow2, and hierarchical configurations.
//===----------------------------------------------------------------------===//

TEST(Collective, EveryAlgorithmDeliversEverywhere) {
  for (const char *Prof : {"sp2", "gpu"}) {
    MachineProfile M = *MachineProfile::byName(Prof);
    for (CollOp Op : {CollOp::Allreduce, CollOp::Bcast, CollOp::Alltoallv})
      for (CollAlgo Algo : candidateAlgos(Op))
        for (int P : {1, 2, 3, 4, 5, 8, 12, 16, 25}) {
          std::optional<CollSchedule> S =
              buildSchedule(Op, Algo, P, 4096, M);
          if (!S)
            continue; // Undefined combination (e.g. halving at non-pow2).
          std::string Err;
          EXPECT_TRUE(verifyDelivery(*S, &Err))
              << Prof << " " << collOpName(Op) << "/" << collAlgoName(Algo)
              << " P=" << P << ": " << Err;
        }
  }
}

TEST(Collective, ExchangeDeliversAllDirections) {
  for (int P : {2, 3, 8})
    for (size_t D : {size_t(1), size_t(2), size_t(4)})
      for (CollAlgo Algo : {CollAlgo::Direct, CollAlgo::Sequential}) {
        CollSchedule S =
            exchangeSchedule(P, std::vector<double>(D, 512.0), Algo);
        std::string Err;
        EXPECT_TRUE(verifyDelivery(S, &Err))
            << collAlgoName(Algo) << " P=" << P << " D=" << D << ": "
            << Err;
      }
}

TEST(Collective, BcastDeliversFromNonzeroRoot) {
  MachineProfile M = *MachineProfile::byName("sp2");
  for (CollAlgo Algo : candidateAlgos(CollOp::Bcast))
    for (int Root : {1, 7}) {
      std::optional<CollSchedule> S =
          buildSchedule(CollOp::Bcast, Algo, 8, 2048, M, Root);
      if (!S)
        continue;
      std::string Err;
      EXPECT_TRUE(verifyDelivery(*S, &Err))
          << collAlgoName(Algo) << " root=" << Root << ": " << Err;
    }
}

//===----------------------------------------------------------------------===//
// Selector properties.
//===----------------------------------------------------------------------===//

TEST(Collective, SelectorNeverCostlierThanRing) {
  for (const char *Prof : {"sp2", "fattree", "gpu"}) {
    MachineProfile M = *MachineProfile::byName(Prof);
    for (CollOp Op : {CollOp::Allreduce, CollOp::Bcast})
      for (int P : {4, 16, 25, 60})
        for (double Bytes : {64.0, 65536.0, 1048576.0}) {
          auto Sel = selectAlgorithm(Op, P, Bytes, M);
          ASSERT_TRUE(Sel.has_value());
          auto Ring = buildSchedule(Op, CollAlgo::Ring, P, Bytes, M);
          ASSERT_TRUE(Ring.has_value());
          CollCost RC = scheduleTime(*Ring, M, collOpPacked(Op));
          EXPECT_LE(Sel->Cost.Time, RC.Time * (1 + 1e-12))
              << Prof << " " << collOpName(Op) << " P=" << P
              << " bytes=" << Bytes;
        }
  }
}

TEST(Collective, SelectorIsDeterministic) {
  MachineProfile M = *MachineProfile::byName("gpu");
  for (int Rep = 0; Rep != 3; ++Rep) {
    auto A = selectAlgorithm(CollOp::Allreduce, 60, 8192, M);
    auto B = selectAlgorithm(CollOp::Allreduce, 60, 8192, M);
    ASSERT_TRUE(A && B);
    EXPECT_EQ(A->Algo, B->Algo);
    EXPECT_EQ(A->Cost.Time, B->Cost.Time);
  }
}

TEST(Collective, BineWinsOnHierarchicalNonPow2) {
  // 60 ranks on the 8-per-node GPU profile: recursive doubling pays the
  // non-pow2 fold across the slow inter-node links; the Bine-style tree
  // keeps the fold inside nodes and crosses fewer times. The selector must
  // notice.
  MachineProfile M = *MachineProfile::byName("gpu");
  auto Bine = buildSchedule(CollOp::Allreduce, CollAlgo::Bine, 60, 4096, M);
  auto RD = buildSchedule(CollOp::Allreduce, CollAlgo::RecursiveDoubling, 60,
                          4096, M);
  ASSERT_TRUE(Bine && RD);
  CollCost BC = scheduleTime(*Bine, M, false);
  CollCost RC = scheduleTime(*RD, M, false);
  EXPECT_LT(BC.CrossRounds, RC.CrossRounds);
  EXPECT_LT(BC.Time, RC.Time);
  auto Sel = selectAlgorithm(CollOp::Allreduce, 60, 4096, M);
  ASSERT_TRUE(Sel.has_value());
  EXPECT_EQ(Sel->Algo, CollAlgo::Bine);
}

TEST(Collective, DirectExchangeMatchesMonolithicShiftCost) {
  // A singleton shift slot lowered as a one-round direct exchange must cost
  // exactly what the monolithic model charges (messageTime + pack both
  // ways): the lowering never regresses un-fusable shifts.
  RoutineResult RR =
      analyzed(shallowWorkload().Source, Strategy::Global, 64, "sp2", 25);
  MachineProfile M = *MachineProfile::byName("sp2");
  std::vector<int64_t> Env(RR.Ctx->R.loopVarNames().size(), 0);
  bool Checked = false;
  for (const CommGroup &G : RR.Plan.Groups) {
    if (G.Kind != CommKind::Shift)
      continue;
    const GroupLowering *GL = RR.Lowering.group(G.Id);
    ASSERT_NE(GL, nullptr);
    if (GL->Phase >= 0)
      continue; // Fused phases intentionally beat the monolithic sum.
    double Bytes = groupPayloadBytes(*RR.Ctx, G, 25, Env);
    CollSchedule S = loweredSchedule(*GL, M, Bytes);
    CollCost C = scheduleTime(S, M, collOpPacked(GL->Op));
    CommCost Mono = groupCost(*RR.Ctx, G, M, 25, Env);
    EXPECT_NEAR(C.Time, Mono.Time, 1e-12 + 1e-9 * Mono.Time)
        << "group " << G.Id;
    Checked = true;
  }
  EXPECT_TRUE(Checked);
}

//===----------------------------------------------------------------------===//
// Microbenchmark discipline.
//===----------------------------------------------------------------------===//

TEST(Collective, MicrobenchIsSeededAndOrdered) {
  MachineProfile M = *MachineProfile::byName("sp2");
  auto S = buildSchedule(CollOp::Allreduce, CollAlgo::Ring, 8, 65536, M);
  ASSERT_TRUE(S.has_value());
  MicrobenchStats A = microbench(*S, M, 3, 10, 42);
  MicrobenchStats B = microbench(*S, M, 3, 10, 42);
  EXPECT_EQ(A.MinSec, B.MinSec);
  EXPECT_EQ(A.MedSec, B.MedSec);
  EXPECT_EQ(A.MaxSec, B.MaxSec);
  EXPECT_EQ(A.Iters, 10);
  EXPECT_LE(A.MinSec, A.MedSec);
  EXPECT_LE(A.MedSec, A.AvgSec * (1 + 1e-9) + A.MaxSec * 1e-9);
  EXPECT_LE(A.AvgSec, A.MaxSec);
  // A different seed perturbs the jitter but not the scale.
  MicrobenchStats C = microbench(*S, M, 3, 10, 7);
  EXPECT_NE(A.MedSec, C.MedSec);
  EXPECT_NEAR(A.MedSec, C.MedSec, 0.3 * A.MedSec);
}

//===----------------------------------------------------------------------===//
// The lowering pass: classification, decision log, annotations.
//===----------------------------------------------------------------------===//

TEST(Lowering, EveryGroupGetsExactlyOneDecision) {
  for (const Workload *W : allWorkloads()) {
    CompileOptions Opts;
    Opts.Placement.Strat = Strategy::Global;
    CompileResult R = compileSource(W->Source, Opts);
    ASSERT_TRUE(R.Ok) << W->Name << ": " << R.Errors;
    EXPECT_TRUE(R.VerifyOk) << W->Name; // IrVerify checks the invariant too.
    for (const RoutineResult &RR : R.Routines) {
      std::vector<int> Seen(RR.Plan.Groups.size(), 0);
      for (const DecisionEvent &E : RR.Plan.Decisions)
        if (E.Kind == DecisionKind::LoweredAs)
          ++Seen[E.OtherId];
      for (size_t I = 0; I != Seen.size(); ++I)
        EXPECT_EQ(Seen[I], 1) << W->Name << " group " << I;
      // And the lowering table itself is dense over the groups.
      for (const CommGroup &G : RR.Plan.Groups)
        EXPECT_NE(RR.Lowering.group(G.Id), nullptr)
            << W->Name << " group " << G.Id;
    }
  }
}

namespace {

/// The selection lowerPlan must reach for one group, priced directly:
/// selectAlgorithm for a standalone collective, every exchange algorithm
/// over the phase's per-direction bytes for a shift run (the time of the
/// whole run).
struct DirectPrice {
  CollAlgo Algo = CollAlgo::Direct;
  int Rounds = 0;
  double Time = 0;
};

DirectPrice priceDirectly(const CommGroup &G, const PlanLowering &L,
                          const MachineProfile &M) {
  const GroupLowering &GL = *L.group(G.Id);
  DirectPrice P;
  if (G.Kind == CommKind::Local)
    return P;
  if (G.Kind != CommKind::Shift) {
    if (std::optional<CollSelection> Sel =
            selectAlgorithm(GL.Op, GL.Procs, GL.Bytes, M))
      P = {Sel->Algo, Sel->Cost.Rounds, Sel->Cost.Time};
    return P;
  }
  std::vector<double> DirBytes;
  if (GL.Phase < 0)
    DirBytes.push_back(GL.Bytes);
  else
    for (int Id : L.Phases[static_cast<size_t>(GL.Phase)].GroupIds)
      DirBytes.push_back(L.group(Id)->Bytes);
  bool Have = false;
  for (CollAlgo A : candidateAlgos(CollOp::NeighborExchange)) {
    CollSchedule S = exchangeSchedule(L.NumProcs, DirBytes, A);
    CollCost C = scheduleTime(S, M, collOpPacked(S.Op));
    if (!Have || C.Time < P.Time) {
      P = {A, C.Rounds, C.Time};
      Have = true;
    }
  }
  return P;
}

/// Places \p Source once, lowers each routine's plan for every machine
/// profile, and checks every group's lowering against direct pricing and
/// each call's lower.collective.* counters against its groups.
void expectLoweringPricedDirectly(const std::string &Name,
                                  const std::string &Source, Strategy Strat) {
  SCOPED_TRACE(Name + " " + strategyName(Strat));
  CompileOptions Opts;
  Opts.Placement.Strat = Strat;
  Opts.Audit = false;
  Opts.Verify = VerifyMode::Off;
  CompileResult R = compileSource(Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  for (const char *Machine : {"sp2", "now", "fattree", "gpu"}) {
    std::optional<MachineProfile> M = MachineProfile::byName(Machine);
    ASSERT_TRUE(M);
    for (const RoutineResult &RR : R.Routines) {
      SCOPED_TRACE(std::string(Machine) + " " + RR.R->name());
      CommPlan Plan = RR.Plan;
      StatsRegistry Stats;
      PlanLowering L = lowerPlan(*RR.Ctx, Plan, *M, Opts.Placement.NumProcs,
                                 &Stats);
      // Members of one fused phase share its price: compute it once per
      // phase (not per shape, which is what lowerPlan's memo keys by).
      std::map<int, DirectPrice> PhasePrice;
      std::map<std::string, int64_t> Expected;
      for (const CommGroup &G : Plan.Groups) {
        const GroupLowering &GL = *L.group(G.Id);
        DirectPrice P;
        if (GL.Phase < 0) {
          P = priceDirectly(G, L, *M);
        } else {
          auto [It, New] = PhasePrice.try_emplace(GL.Phase);
          if (New)
            It->second = priceDirectly(G, L, *M);
          P = It->second;
          P.Time = GL.PhaseLead ? P.Time : 0; // The lead carries the cost.
          const LoweringPhase &Ph = L.Phases[static_cast<size_t>(GL.Phase)];
          ASSERT_GE(Ph.GroupIds.size(), 2u);
          EXPECT_EQ(Ph.Algo, GL.Algo);
          EXPECT_EQ(GL.PhaseLead, Ph.GroupIds.front() == G.Id);
          EXPECT_NE(std::find(Ph.GroupIds.begin(), Ph.GroupIds.end(), G.Id),
                    Ph.GroupIds.end());
        }
        EXPECT_EQ(GL.Algo, P.Algo) << "group " << G.Id;
        EXPECT_EQ(GL.Rounds, P.Rounds) << "group " << G.Id;
        EXPECT_EQ(GL.NominalTime, P.Time) << "group " << G.Id;
        ++Expected["lower.collective.groups"];
        ++Expected[std::string("lower.collective.op.") + collOpName(GL.Op)];
        ++Expected[std::string("lower.collective.algo.") +
                   collAlgoName(GL.Algo)];
      }
      if (!L.Phases.empty())
        Expected["lower.collective.fused-phases"] =
            static_cast<int64_t>(L.Phases.size());
      EXPECT_EQ(Stats.snapshot(), Expected);
    }
  }
}

} // namespace

// lowerPlan prices each collective shape once per call; every group's
// selection must equal pricing its own shape from scratch.
TEST(Lowering, MemoizedPricingEqualsDirectPricing) {
  // Two all-to-all groups of one rank count and different sizes: a memo
  // that ignored the payload would price the second like the first.
  const std::string Sizes = "program sizes\n"
                            "param n = 64\n"
                            "real a(n,n) distribute (block,block)\n"
                            "real b(n,n) distribute (block,block)\n"
                            "real c(n,n) distribute (block,block)\n"
                            "begin\n"
                            "do i = 1, n\n"
                            "  do j = 1, n\n"
                            "    a(i,j) = b(1,j) + b(j,i)\n"
                            "  end do\n"
                            "end do\n"
                            "do i = 1, n\n"
                            "  do j = 1, 8\n"
                            "    a(i,j) = c(1,j) + c(j,i)\n"
                            "  end do\n"
                            "end do\n"
                            "end\n";
  for (Strategy Strat : {Strategy::Orig, Strategy::Earliest, Strategy::Global,
                         Strategy::Optimal, Strategy::EarliestCombine}) {
    for (const Workload *W : allWorkloads())
      expectLoweringPricedDirectly(W->Name, W->Source, Strat);
    expectLoweringPricedDirectly("sizes", Sizes, Strat);
  }
  SynthSpec N400;
  N400.Nests = 400;
  expectLoweringPricedDirectly("synth n400", synthSource(N400),
                               Strategy::Global);
  expectLoweringPricedDirectly("8x150 file", synthRoutinesSource(8, 150, 1),
                               Strategy::Global);
}

TEST(Lowering, ClassifierMapsKindsToOps) {
  RoutineResult RR =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "sp2", 25);
  bool SawExchange = false, SawAllreduce = false;
  for (const CommGroup &G : RR.Plan.Groups) {
    const GroupLowering *GL = RR.Lowering.group(G.Id);
    ASSERT_NE(GL, nullptr);
    switch (G.Kind) {
    case CommKind::Shift:
      EXPECT_EQ(GL->Op, CollOp::NeighborExchange);
      SawExchange = true;
      break;
    case CommKind::Reduce:
      EXPECT_EQ(GL->Op, CollOp::Allreduce);
      SawAllreduce = true;
      break;
    case CommKind::Bcast:
      EXPECT_EQ(GL->Op, CollOp::Bcast);
      break;
    default:
      break;
    }
  }
  EXPECT_TRUE(SawExchange);
  EXPECT_TRUE(SawAllreduce);
}

TEST(Lowering, ReductionProcsComeFromGrid) {
  // gravity's SUM reductions reduce over one dimension of the 5x5 grid, so
  // the collective spans 5 ranks, not 25.
  RoutineResult RR =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "sp2", 25);
  bool Checked = false;
  for (const CommGroup &G : RR.Plan.Groups) {
    if (G.Kind != CommKind::Reduce)
      continue;
    const GroupLowering *GL = RR.Lowering.group(G.Id);
    ASSERT_NE(GL, nullptr);
    EXPECT_EQ(GL->Procs, 5);
    Checked = true;
  }
  EXPECT_TRUE(Checked);
}

TEST(Lowering, AnnotatedListingShowsAlgorithms) {
  RoutineResult RR =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "sp2", 25);
  ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
  std::string Plain = Prog.listing(*RR.Ctx, RR.Plan);
  std::string Ann = Prog.listing(*RR.Ctx, RR.Plan, &RR.Lowering);
  EXPECT_EQ(Plain.find(" -> "), std::string::npos);
  EXPECT_NE(Ann.find("COMM NNC"), std::string::npos);
  EXPECT_NE(Ann.find(" -> neighbor-exchange/"), std::string::npos) << Ann;
  EXPECT_NE(Ann.find(" -> allreduce/"), std::string::npos) << Ann;
  // The fused slot advertises how many directions ride the phase.
  EXPECT_NE(Ann.find("fused="), std::string::npos) << Ann;
}

TEST(Lowering, GoldenAnnotatedListingGravitySlice) {
  // The four fusable NNC shifts of gravity's force routine share one slot;
  // the lowering posts them as one direct multi-direction exchange and the
  // listing says so on each member.
  RoutineResult RR =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "sp2", 25);
  ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
  std::string Ann = Prog.listing(*RR.Ctx, RR.Plan, &RR.Lowering);
  EXPECT_NE(Ann.find("-> neighbor-exchange/direct fused=4"),
            std::string::npos)
      << Ann;
}

TEST(Lowering, SelectionIsMachineSensitive) {
  // Identical source, different profile: decisions must record the profile
  // the pass priced (and the pipeline fingerprint keeps them apart in the
  // cache).
  RoutineResult Sp2 =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "sp2", 25);
  RoutineResult Gpu =
      analyzed(gravityWorkload().Source, Strategy::Global, 64, "gpu", 25);
  EXPECT_EQ(Sp2.Lowering.MachineName, "SP2");
  EXPECT_EQ(Gpu.Lowering.MachineName, "GPU");
  ASSERT_EQ(Sp2.Lowering.Groups.size(), Gpu.Lowering.Groups.size());
}

//===----------------------------------------------------------------------===//
// Lowered simulation: the PR's acceptance claim.
//===----------------------------------------------------------------------===//

namespace {

std::pair<double, double> commTimes(const Workload &W, int64_t N,
                                    int64_t Steps, int Procs) {
  CompileOptions Opts;
  Opts.Placement.Strat = Strategy::Global;
  Opts.Placement.NumProcs = Procs;
  Opts.Params["n"] = N;
  Opts.Params["nsteps"] = Steps;
  CompileResult R = compileSource(W.Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Errors;
  MachineProfile M = *MachineProfile::byName("sp2");
  double Mono = 0, Low = 0;
  for (const RoutineResult &RR : R.Routines) {
    ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
    Mono += simulate(*RR.Ctx, RR.Plan, Prog, M, Procs).CommTime;
    Low += simulate(*RR.Ctx, RR.Plan, Prog, M, Procs, &RR.Lowering).CommTime;
  }
  return {Mono, Low};
}

} // namespace

TEST(LoweredSim, BeatsMonolithicOnFigure10Workloads) {
  int Wins = 0;
  for (const Workload *W : {&shallowWorkload(), &gravityWorkload(),
                            &trimeshWorkload(), &hydfloWorkload()}) {
    auto [Mono, Low] = commTimes(*W, 64, 2, 25);
    EXPECT_GT(Mono, 0) << W->Name;
    EXPECT_GT(Low, 0) << W->Name;
    if (Low < Mono)
      ++Wins;
  }
  EXPECT_GE(Wins, 3);
}

TEST(LoweredSim, NeverWorseThanMonolithicHere) {
  // On these workloads the lowering is conservative: singleton exchanges are
  // exact-parity and fused/collective slots only improve, so lowered comm
  // time must never exceed monolithic.
  for (const Workload *W : {&shallowWorkload(), &gravityWorkload(),
                            &trimeshWorkload(), &hydfloWorkload()}) {
    auto [Mono, Low] = commTimes(*W, 64, 2, 25);
    EXPECT_LE(Low, Mono * (1 + 1e-9)) << W->Name;
  }
}
