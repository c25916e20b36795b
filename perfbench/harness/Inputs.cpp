//===- perfbench/harness/Inputs.cpp - Seeded workload inputs --------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Every input is a pure function of the workload seed; the program under
// test sees only the generated text.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StrUtil.h"
#include "workloads/Synth.h"

#include <algorithm>
#include <cmath>
#include <string_view>

using namespace gca;

namespace pb {

namespace {

double exponential(Rng &R, double Rate) {
  return -std::log(1.0 - R.uniform()) / Rate;
}

/// Rewrites one stencil statement of one routine in place. The line count
/// stays, so every other routine keeps its text and its start line: the
/// server sees one routine miss and seven routine hits.
std::string editOneRoutine(const std::string &Src, Rng &R) {
  std::vector<size_t> Starts;
  for (size_t P = Src.find("\nroutine "); P != std::string::npos;
       P = Src.find("\nroutine ", P + 1))
    Starts.push_back(P + 1);
  for (;;) {
    const size_t Pick =
        static_cast<size_t>(R.range(0, static_cast<int>(Starts.size()) - 1));
    const size_t Begin = Starts[Pick];
    const size_t End = Pick + 1 < Starts.size() ? Starts[Pick + 1] : Src.size();
    std::vector<std::pair<size_t, size_t>> Lines;
    for (size_t P = Begin; P < End;) {
      const size_t Nl = std::min(Src.find('\n', P), End);
      if (std::string_view(Src).substr(P, Nl - P).find("(3:n-2,3:n-2) = ") !=
          std::string_view::npos)
        Lines.emplace_back(P, Nl);
      P = Nl + 1;
    }
    if (Lines.empty())
      continue;
    const auto [LB, LE] = Lines[static_cast<size_t>(
        R.range(0, static_cast<int>(Lines.size()) - 1))];
    const std::string Old = Src.substr(LB, LE - LB);
    std::string New;
    do {
      New = std::string(Old.find_first_not_of(' '), ' ') +
            strFormat("a%d(3:n-2,3:n-2) = ", R.range(0, 7));
      for (int T = 0, Terms = R.range(1, 4); T != Terms; ++T) {
        const int Di = R.range(-2, 2), Dj = R.range(-2, 2);
        New += strFormat("%sa%d(%d:n-%d,%d:n-%d)", T ? " + " : "",
                         R.range(0, 7), 3 + Di, 2 - Di, 3 + Dj, 2 - Dj);
      }
    } while (New == Old);
    return Src.substr(0, LB) + New + Src.substr(LE);
  }
}

struct Panel {
  char Name;
  const Workload &(*W)();
  const char *Machine;
  int Procs;
  std::vector<int64_t> Sizes;
  int64_t Steps;
};

CompileOptions fig10Options(const Panel &P, Strategy S, int64_t N) {
  CompileOptions Opts;
  Opts.Placement.Strat = S;
  Opts.Placement.NumProcs = P.Procs;
  Opts.Machine = P.Machine;
  Opts.Params["n"] = N;
  Opts.Params["nsteps"] = P.Steps;
  return Opts;
}

std::string synthProgram(uint64_t Seed, int Nests) {
  SynthSpec Spec;
  Spec.Nests = Nests;
  Spec.Seed = Seed;
  return synthSource(Spec);
}

} // namespace

CompileOp compileLargeOp(uint64_t Seed, int Index) {
  const uint64_t S = Seed * 1000003 + static_cast<uint64_t>(Index) + 1;
  CompileOp Op;
  Op.Name = strFormat("synth-%llu-%d", static_cast<unsigned long long>(Seed),
                      Index);
  Op.Source = synthProgram(S, kCompileLargeNests);
  Op.HalfSource = synthProgram(S, kCompileLargeNests / 2);
  return Op;
}

std::vector<Fig10Point> fig10Points(uint64_t Seed) {
  // Figure 10 (a)-(f), as bench/bench_fig10_panels.cpp draws them.
  const Panel Panels[] = {
      {'a', shallowWorkload, "sp2", 25,
       {100, 125, 150, 175, 200, 225, 250, 275}, 50},
      {'b', gravityWorkload, "sp2", 25,
       {100, 125, 150, 175, 200, 225, 250, 275, 300, 325}, 50},
      {'c', shallowWorkload, "now", 8, {400, 450, 500}, 20},
      {'d', gravityWorkload, "now", 8,
       {100, 124, 150, 174, 200, 224, 250, 274}, 5},
      {'e', hydfloWorkload, "sp2", 25, {28, 32, 40, 48, 56, 64}, 5},
      {'f', trimeshWorkload, "now", 8, {192, 256, 320}, 5},
  };
  std::vector<Fig10Point> Points;
  for (const Panel &P : Panels)
    for (int64_t N : P.Sizes)
      for (Strategy S :
           {Strategy::Orig, Strategy::Earliest, Strategy::Global}) {
        Fig10Point Pt;
        Pt.W = &P.W();
        Pt.Panel = P.Name;
        Pt.N = N;
        Pt.Strat = S;
        Pt.Op.Name = strFormat("%s-%c-%lld-%s", Pt.W->Name.c_str(), P.Name,
                               static_cast<long long>(N), strategyName(S));
        Pt.Op.Source = Pt.W->Source;
        Pt.Op.Opts = fig10Options(P, S, N);
        Pt.Op.HalfSource = Pt.W->Source;
        Pt.Op.HalfOpts = fig10Options(P, S, N / 2);
        Points.push_back(std::move(Pt));
      }
  Rng R(Seed);
  for (size_t I = Points.size(); I > 1; --I)
    std::swap(Points[I - 1], Points[static_cast<size_t>(R.next() % I)]);
  return Points;
}

std::string serveFileSource(uint64_t FileSeed, int Routines, int Nests) {
  std::string Src = "program project\nparam n = 64\n";
  for (int I = 0; I != Routines; ++I) {
    const std::string Body =
        synthProgram(FileSeed * 131 + static_cast<uint64_t>(I) + 1, Nests);
    // Drop the synth program's own "program" and "param" lines.
    const size_t Cut = Body.find('\n', Body.find('\n') + 1) + 1;
    Src += strFormat("routine r%d\n", I) + Body.substr(Cut);
  }
  return Src;
}

ServeStream serveEditStream(uint64_t Seed, int NominalCount,
                            int SaturationCount) {
  ServeStream St;
  Rng R(Seed);
  uint64_t NextFileSeed = Seed * 1000003 + 1;
  std::vector<std::string> Current;
  std::vector<uint64_t> CurrentSeed;
  for (int F = 0; F != kServeFiles; ++F) {
    St.FileNames.push_back(strFormat("project/unit%d.hpf", F));
    CurrentSeed.push_back(NextFileSeed++);
    Current.push_back(serveFileSource(CurrentSeed.back(), kRoutinesPerFile,
                                      kNestsPerRoutine));
  }
  St.InitialFiles = Current;

  // Each block of 20 requests holds exactly 5 resubmissions, 13 one-routine
  // edits and 2 new files, in seeded order: the mix, and so the work per
  // request, does not vary with the seed.
  std::vector<ReqKind> Block;
  auto Next = [&](double DueSec) {
    if (Block.empty()) {
      Block.assign(5, ReqKind::Resubmit);
      Block.insert(Block.end(), 13, ReqKind::Edit);
      Block.insert(Block.end(), 2, ReqKind::NewFile);
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[static_cast<size_t>(R.next() % I)]);
    }
    ServeRequest Q;
    Q.DueSec = DueSec;
    Q.Kind = Block.back();
    Block.pop_back();
    Q.File = R.range(0, kServeFiles - 1);
    const size_t F = static_cast<size_t>(Q.File);
    // A resubmission sends the file's current version unchanged.
    if (Q.Kind == ReqKind::Edit) {
      Current[F] = editOneRoutine(Current[F], R);
    } else if (Q.Kind == ReqKind::NewFile) {
      CurrentSeed[F] = NextFileSeed++;
      Current[F] = serveFileSource(CurrentSeed[F], kRoutinesPerFile,
                                   kNestsPerRoutine);
    }
    Q.FileSeed = CurrentSeed[F];
    Q.Source = Current[F];
    return Q;
  };
  double T = 0;
  for (int I = 0; I != NominalCount; ++I) {
    T += exponential(R, kServeNominalRate);
    St.Nominal.push_back(Next(T));
  }
  for (int I = 0; I != SaturationCount; ++I)
    St.Saturation.push_back(Next(0));
  return St;
}

} // namespace pb
