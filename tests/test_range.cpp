//===- tests/test_range.cpp - range-analysis oracle -----------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The range-analysis oracle (RangeOracle.h) over the tier-1 corpus: the
/// example programs, the built-in workloads, seeded synthetic routines of
/// 400 and 2000 nests, and one 8-routine file of 150-nest routines. The
/// fuzz shards run the same oracle over the FuzzGen programs.
///
//===----------------------------------------------------------------------===//

#include "RangeOracle.h"
#include "support/StrUtil.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace gca;

namespace {

std::string synthProgram(uint64_t Seed, int Nests) {
  SynthSpec Spec;
  Spec.Nests = Nests;
  Spec.Seed = Seed;
  return synthSource(Spec);
}

} // namespace

TEST(RangeOracle, ExamplePrograms) {
  int Files = 0;
  for (const auto &Ent :
       std::filesystem::directory_iterator(GCA_EXAMPLES_DIR)) {
    if (Ent.path().extension() != ".hpf")
      continue;
    std::ifstream In(Ent.path());
    std::stringstream Src;
    Src << In.rdbuf();
    for (const auto &[Name, Opts] : rangeOracleOptionSets())
      expectRangeMatchesReference(Src.str(), Opts,
                                  Ent.path().filename().string() + " " +
                                      Name);
    ++Files;
  }
  EXPECT_GT(Files, 0);
}

TEST(RangeOracle, BuiltinWorkloads) {
  for (const Workload *W : allWorkloads())
    for (const auto &[Name, Opts] : rangeOracleOptionSets())
      expectRangeMatchesReference(W->Source, Opts, W->Name + " " + Name);
}

TEST(RangeOracle, SynthRoutines) {
  for (uint64_t Seed : {1, 2, 3})
    expectRangeMatchesReference(synthProgram(Seed, 400), CompileOptions(),
                                strFormat("synth n400 seed %d",
                                          static_cast<int>(Seed)));
  // The indexed analysis must also do strictly less work than the
  // reference on a routine this size (the point of the index).
  for (uint64_t Seed : {1, 3000016}) {
    RangeOracleWork W = expectRangeMatchesReference(
        synthProgram(Seed, 2000), CompileOptions(),
        strFormat("synth n2000 seed %llu",
                  static_cast<unsigned long long>(Seed)));
    EXPECT_LT(W.Indexed.Solves, W.Reference.Solves);
    EXPECT_LT(W.Indexed.Steps, W.Reference.Steps);
  }
}

TEST(RangeOracle, EightRoutineFile) {
  RangeOracleWork W = expectRangeMatchesReference(
      synthRoutinesSource(8, 150, /*FirstSeed=*/1000), CompileOptions(),
      "8x150 file");
  EXPECT_GT(W.Entries, 1000);
}
