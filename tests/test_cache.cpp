//===- tests/test_cache.cpp - Result-cache differential harness -----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness contract of the result cache is bitwise replay: a warm
/// compilation must be indistinguishable from a cold one — same plans, same
/// diagnostics, same dump-after records, same counters. This harness proves
/// it differentially over every built-in workload under every evaluation
/// strategy, then attacks the key: flipping any single option or any single
/// source byte must miss, permuting how semantically identical options were
/// built up must hit, and corrupt or truncated disk entries must degrade to
/// misses, never to wrong replays.
///
//===----------------------------------------------------------------------===//

#include "driver/CachedPipeline.h"
#include "driver/Serve.h"
#include "support/ResultCache.h"
#include "support/ThreadPool.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace gca;

namespace {

/// Everything observable from one compilation, rendered for comparison.
struct Observed {
  bool Ok = false;
  bool VerifyOk = true;
  std::string Errors;
  std::string Diagnostics;
  std::string PlanText;
  std::vector<std::pair<std::string, std::string>> Dumps;
  StatsRegistry::Snapshot Counters;
  /// What gca-compile and the server print: plans, diagnostics, --stats.
  std::string Output;
  /// Each pass's counters, as in --time-report=json. A whole-file cache hit
  /// runs no pass, so it has none.
  std::vector<std::pair<std::string, StatsRegistry::Snapshot>> PassCounters;

  bool operator==(const Observed &O) const = default;
};

Observed observe(Session &S) {
  Observed Out;
  CompileResult R = S.take();
  Out.Ok = R.Ok;
  Out.VerifyOk = R.VerifyOk;
  Out.Errors = R.Errors;
  Out.Diagnostics = R.Diagnostics;
  Out.PlanText = R.planText();
  Out.Dumps = S.Dumps;
  Out.Counters = S.Stats.snapshot();
  Out.Output = renderCompileOutput("input.hpf", S, R, /*PrintPlans=*/true,
                                   /*Stats=*/true, /*DumpDecisions=*/false);
  for (const PassRecord &P : S.Passes)
    Out.PassCounters.emplace_back(P.Name, P.Counters);
  return Out;
}

CompileOptions fullOptions(Strategy Strat) {
  CompileOptions Opts;
  Opts.Placement.Strat = Strat;
  Opts.Lint = true;
  Opts.DumpAfter = "placement";
  return Opts;
}

std::string tempCacheDir(const char *Tag) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::string("gca-cache-") + Tag + "-" +
           std::to_string(::getpid())))
      .string();
}

/// The single .gcache file in \p Dir (the tests store exactly one entry).
std::filesystem::path onlyCacheFile(const std::string &Dir) {
  std::filesystem::path Found;
  int Count = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".gcache") {
      Found = E.path();
      ++Count;
    }
  EXPECT_EQ(Count, 1);
  return Found;
}

CachedResult sampleResult() {
  CachedResult R;
  R.Ok = true;
  R.VerifyOk = false;
  R.Errors = "";
  R.Diagnostics = "warning: something\nnote: with\nnewlines\n";
  R.Plans = {{"main", "plan text\nwith lines\n"}, {"aux", ""}};
  R.Dumps = {{"placement", std::string("binary\0bytes\n", 13)}};
  R.Counters = {{"placement.entries-detected", 7}, {"lint.warnings", 0}};
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: cold vs. warm over every workload x strategy
//===----------------------------------------------------------------------===//

class CacheDifferential : public ::testing::TestWithParam<Strategy> {};

TEST_P(CacheDifferential, WarmReplayIsBitwiseIdentical) {
  ResultCache Cache;
  CachedPipeline CP(Cache);
  for (const Workload *W : allWorkloads()) {
    SCOPED_TRACE(W->Name);
    CompileOptions Opts = fullOptions(GetParam());

    Session Cold(W->Source, Opts);
    EXPECT_FALSE(CP.run(Cold)) << "first compilation must miss";
    Observed C = observe(Cold);

    Session Warm(W->Source, Opts);
    EXPECT_TRUE(CP.run(Warm)) << "second compilation must hit";
    Observed H = observe(Warm);

    ASSERT_TRUE(C.Ok);
    EXPECT_EQ(C.Ok, H.Ok);
    EXPECT_EQ(C.VerifyOk, H.VerifyOk);
    EXPECT_EQ(C.Errors, H.Errors);
    EXPECT_EQ(C.Diagnostics, H.Diagnostics);
    EXPECT_EQ(C.PlanText, H.PlanText);
    EXPECT_EQ(C.Dumps, H.Dumps);
    // The cache keeps its own hit/miss counters outside the session
    // registry, so session stats compare exactly.
    EXPECT_EQ(C.Counters, H.Counters);
  }
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, static_cast<int64_t>(allWorkloads().size()));
  EXPECT_EQ(S.Hits, static_cast<int64_t>(allWorkloads().size()));
}

INSTANTIATE_TEST_SUITE_P(Strategies, CacheDifferential,
                         ::testing::Values(Strategy::Orig, Strategy::Earliest,
                                           Strategy::Global,
                                           Strategy::EarliestCombine),
                         [](const auto &Info) {
                           return std::string(strategyName(Info.param));
                         });

TEST(CacheDifferential, CompileSourceOverloadReplaysDiagnostics) {
  // A -p override matching no param declaration produces a frontend warning
  // — the kind of non-error diagnostic a replay must not drop.
  const Workload &W = figure4Workload();
  CompileOptions Opts = fullOptions(Strategy::Global);
  Opts.Params["no_such_param"] = 3;

  ResultCache Cache;
  CompileResult Cold = compileSource(W.Source, Opts, &Cache);
  CompileResult Warm = compileSource(W.Source, Opts, &Cache);

  ASSERT_TRUE(Cold.Ok);
  EXPECT_FALSE(Cold.FromCache);
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_FALSE(Cold.Diagnostics.empty());
  EXPECT_EQ(Cold.Diagnostics, Warm.Diagnostics);
  EXPECT_EQ(Cold.planText(), Warm.planText());
  EXPECT_EQ(Cold.VerifyOk, Warm.VerifyOk);

  // Null cache degrades to the plain overload.
  CompileResult Plain = compileSource(W.Source, Opts, nullptr);
  EXPECT_FALSE(Plain.FromCache);
  EXPECT_EQ(Plain.Diagnostics, Cold.Diagnostics);
  EXPECT_EQ(Plain.planText(), Cold.planText());
}

TEST(CacheDifferential, FailedCompilationsReplayTheirErrors) {
  ResultCache Cache;
  CompileOptions Opts;
  std::string Bad = "program broken\nbegin\nthis is not hpf\nend\n";
  CompileResult Cold = compileSource(Bad, Opts, &Cache);
  CompileResult Warm = compileSource(Bad, Opts, &Cache);
  ASSERT_FALSE(Cold.Ok);
  EXPECT_FALSE(Warm.Ok);
  EXPECT_TRUE(Warm.FromCache);
  EXPECT_FALSE(Cold.Errors.empty());
  EXPECT_EQ(Cold.Errors, Warm.Errors);
}

//===----------------------------------------------------------------------===//
// Key sensitivity: any input flip must change the key
//===----------------------------------------------------------------------===//

TEST(CacheKeyTest, EveryOptionFlipChangesTheKey) {
  const std::string Src = figure4Workload().Source;
  CompileOptions Base;
  CacheKey K0 = compileCacheKey(Src, Base);

  std::vector<std::pair<const char *, CompileOptions>> Flips;
  auto Add = [&](const char *Name, auto Mutate) {
    CompileOptions O = Base;
    Mutate(O);
    Flips.emplace_back(Name, std::move(O));
  };
  Add("strategy", [](auto &O) { O.Placement.Strat = Strategy::Orig; });
  Add("combine-threshold",
      [](auto &O) { O.Placement.CombineThresholdBytes += 1; });
  Add("max-union-growth", [](auto &O) { O.Placement.MaxUnionGrowth += 0.25; });
  Add("num-procs", [](auto &O) { O.Placement.NumProcs += 1; });
  Add("subsume-diagonals",
      [](auto &O) { O.Placement.SubsumeDiagonals = !O.Placement.SubsumeDiagonals; });
  Add("partial-redundancy",
      [](auto &O) { O.Placement.PartialRedundancy = !O.Placement.PartialRedundancy; });
  Add("defer-reductions",
      [](auto &O) { O.Placement.DeferReductions = !O.Placement.DeferReductions; });
  Add("scalarize", [](auto &O) { O.Scalarize = !O.Scalarize; });
  Add("fuse-loops", [](auto &O) { O.FuseLoops = !O.FuseLoops; });
  Add("lint", [](auto &O) { O.Lint = !O.Lint; });
  Add("dump-after", [](auto &O) { O.DumpAfter = "placement"; });
  Add("param", [](auto &O) { O.Params["n"] = 64; });

  for (const auto &[Name, Opts] : Flips) {
    SCOPED_TRACE(Name);
    EXPECT_FALSE(compileCacheKey(Src, Opts) == K0)
        << "option '" << Name << "' is not folded into the cache key";
  }

  // A populated cache must MISS under every flipped option set.
  ResultCache Cache;
  CachedPipeline CP(Cache);
  Session Seed(Src, Base);
  EXPECT_FALSE(CP.run(Seed));
  for (const auto &[Name, Opts] : Flips) {
    SCOPED_TRACE(Name);
    Session S(Src, Opts);
    EXPECT_FALSE(CP.run(S)) << "flipped option replayed a stale result";
  }
}

TEST(CacheKeyTest, EverySourceByteMatters) {
  CompileOptions Opts;
  std::string Src = figure4Workload().Source;
  CacheKey K0 = compileCacheKey(Src, Opts);
  for (size_t I = 0; I < Src.size(); I += 7) {
    std::string Mutated = Src;
    Mutated[I] = Mutated[I] == 'x' ? 'y' : 'x';
    if (Mutated == Src)
      continue;
    EXPECT_FALSE(compileCacheKey(Mutated, Opts) == K0) << "byte " << I;
  }
  // Appending and prepending also change it.
  EXPECT_FALSE(compileCacheKey(Src + " ", Opts) == K0);
  EXPECT_FALSE(compileCacheKey(" " + Src, Opts) == K0);
}

TEST(CacheKeyTest, PipelinePassListIsPartOfTheKey) {
  const std::string Src = figure4Workload().Source;
  CompileOptions Opts;
  CacheKey K0 = compileCacheKey(Src, Opts, Pipeline::standard());

  Pipeline Extended;
  for (const Pass &Stage : Pipeline::standard().passes())
    Extended.add(Stage.Name, Stage.Fn);
  Extended.add("extra-pass", [](Session &) { return true; });
  EXPECT_FALSE(compileCacheKey(Src, Opts, Extended) == K0)
      << "adding a pass must invalidate cached results";
}

//===----------------------------------------------------------------------===//
// Normalization: semantically identical option sets hash equal
//===----------------------------------------------------------------------===//

TEST(CacheKeyTest, NormalizationIsCanonical) {
  // Defaults vs. explicitly default-filled fields.
  CompileOptions Default;
  CompileOptions Explicit;
  Explicit.Placement.Strat = Strategy::Global;
  Explicit.Placement.CombineThresholdBytes = 20 * 1024;
  Explicit.Placement.MaxUnionGrowth = 1.5;
  Explicit.Placement.NumProcs = 25;
  Explicit.Placement.SubsumeDiagonals = true;
  Explicit.Placement.PartialRedundancy = false;
  Explicit.Placement.DeferReductions = false;
  Explicit.Scalarize = Default.Scalarize;
  Explicit.FuseLoops = Default.FuseLoops;
  Explicit.Lint = Default.Lint;
  Explicit.DumpAfter = "";
  EXPECT_EQ(optionsFingerprint(Default), optionsFingerprint(Explicit));

  // The non-semantic stats-export pointer is excluded.
  StatsRegistry Stats;
  CompileOptions WithStats = Default;
  WithStats.Placement.Stats = &Stats;
  EXPECT_EQ(optionsFingerprint(Default), optionsFingerprint(WithStats));
}

TEST(CacheKeyTest, PermutedParamOrderingsHashEqual) {
  // Build the same override set in every insertion order (and once with an
  // overwritten stale value); all renderings must be identical.
  std::vector<std::pair<std::string, int64_t>> Overrides = {
      {"n", 128}, {"nsteps", 4}, {"m", 9}};
  std::vector<int> Perm = {0, 1, 2};
  std::string Want;
  do {
    CompileOptions O;
    for (int I : Perm)
      O.Params[Overrides[I].first] = Overrides[I].second;
    std::string Got = optionsFingerprint(O);
    if (Want.empty())
      Want = Got;
    EXPECT_EQ(Got, Want);
  } while (std::next_permutation(Perm.begin(), Perm.end()));

  CompileOptions Overwritten;
  Overwritten.Params["nsteps"] = 999; // Stale; overwritten below.
  Overwritten.Params["m"] = 9;
  Overwritten.Params["n"] = 128;
  Overwritten.Params["nsteps"] = 4;
  EXPECT_EQ(optionsFingerprint(Overwritten), Want);

  // But a different value — or an extra override — is a different key.
  CompileOptions Different;
  Different.Params["n"] = 128;
  Different.Params["nsteps"] = 5;
  Different.Params["m"] = 9;
  EXPECT_NE(optionsFingerprint(Different), Want);
}

//===----------------------------------------------------------------------===//
// Serialization and the disk tier
//===----------------------------------------------------------------------===//

TEST(CachedResultTest, SerializeRoundTripsExactly) {
  CachedResult R = sampleResult();
  std::string Bytes = R.serialize();
  std::optional<CachedResult> Back = CachedResult::deserialize(Bytes);
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(*Back == R);

  // Empty result round-trips too.
  CachedResult Empty;
  Back = CachedResult::deserialize(Empty.serialize());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(*Back == Empty);
}

TEST(CachedResultTest, TamperedBytesFailClosed) {
  std::string Bytes = sampleResult().serialize();
  // Truncations at every length.
  for (size_t Len = 0; Len < Bytes.size(); Len += 11)
    EXPECT_FALSE(CachedResult::deserialize(Bytes.substr(0, Len)).has_value())
        << "truncated to " << Len;
  // Single-byte flips throughout.
  for (size_t I = 0; I < Bytes.size(); I += 5) {
    std::string Mutated = Bytes;
    Mutated[I] ^= 0x20;
    if (Mutated == Bytes)
      continue;
    EXPECT_FALSE(CachedResult::deserialize(Mutated).has_value())
        << "flip at " << I;
  }
  // Trailing garbage.
  EXPECT_FALSE(CachedResult::deserialize(Bytes + "x").has_value());
}

TEST(ResultCacheTest, DiskTierSurvivesProcessBoundary) {
  std::string Dir = tempCacheDir("disk");
  std::filesystem::remove_all(Dir);
  CacheKey K = CacheKey::of("some material");
  CachedResult R = sampleResult();
  {
    ResultCache::Config C;
    C.Dir = Dir;
    ResultCache Cache(C);
    Cache.store(K, R);
  }
  // A fresh cache (empty memory tier) over the same directory hits disk.
  ResultCache::Config C;
  C.Dir = Dir;
  ResultCache Cache(C);
  std::atomic<int> Computes{0};
  CachedResult Got = Cache.getOrCompute(K, [&] {
    ++Computes;
    return CachedResult();
  });
  EXPECT_EQ(Computes.load(), 0) << "disk entry should satisfy the lookup";
  EXPECT_TRUE(Got == R);
  EXPECT_EQ(Cache.stats().DiskHits, 1);
  std::filesystem::remove_all(Dir);
}

class CorruptDiskEntry : public ::testing::TestWithParam<const char *> {};

TEST_P(CorruptDiskEntry, IsAMissNeverAWrongReplay) {
  std::string Dir = tempCacheDir(GetParam());
  std::filesystem::remove_all(Dir);
  CacheKey K = CacheKey::of("corruptible");
  {
    ResultCache::Config C;
    C.Dir = Dir;
    ResultCache Cache(C);
    Cache.store(K, sampleResult());
  }
  std::filesystem::path File = onlyCacheFile(Dir);
  std::string Mode = GetParam();
  if (Mode == "truncated") {
    auto Size = std::filesystem::file_size(File);
    std::filesystem::resize_file(File, Size / 2);
  } else if (Mode == "empty") {
    std::ofstream(File, std::ios::trunc).close();
  } else { // flipped
    std::fstream F(File, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(static_cast<std::streamoff>(std::filesystem::file_size(File) / 2));
    F.put('\xff');
  }

  ResultCache::Config C;
  C.Dir = Dir;
  ResultCache Cache(C);
  std::atomic<int> Computes{0};
  CachedResult Fresh;
  Fresh.Ok = true;
  Fresh.Diagnostics = "recomputed";
  bool Hit = true;
  CachedResult Got = Cache.getOrCompute(K, [&] {
    ++Computes;
    return Fresh;
  }, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Computes.load(), 1);
  EXPECT_TRUE(Got == Fresh);
  EXPECT_GE(Cache.stats().DiskErrors, 1);
  // The recompute rewrote the entry; it must now be readable again.
  ResultCache Cache2(C);
  EXPECT_TRUE(Cache2.lookup(K).has_value());
  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Modes, CorruptDiskEntry,
                         ::testing::Values("truncated", "empty", "flipped"));

//===----------------------------------------------------------------------===//
// Memory tier: LRU byte budget
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, LruEvictionHonorsByteBudget) {
  CachedResult Big;
  Big.Ok = true;
  Big.Diagnostics.assign(1000, 'd');
  size_t EntryBytes = Big.byteSize();

  ResultCache::Config C;
  C.MemBudgetBytes = 3 * EntryBytes + EntryBytes / 2; // Room for three.
  ResultCache Cache(C);

  std::vector<CacheKey> Keys;
  for (int I = 0; I != 6; ++I) {
    Keys.push_back(CacheKey::of("entry " + std::to_string(I)));
    Cache.store(Keys.back(), Big);
  }
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 3);
  EXPECT_EQ(S.Entries, 3);
  EXPECT_LE(S.Bytes, static_cast<int64_t>(C.MemBudgetBytes));
  // Oldest three evicted, newest three resident.
  for (int I = 0; I != 3; ++I)
    EXPECT_FALSE(Cache.lookup(Keys[I]).has_value()) << I;
  for (int I = 3; I != 6; ++I)
    EXPECT_TRUE(Cache.lookup(Keys[I]).has_value()) << I;
}

TEST(ResultCacheTest, LookupRefreshesRecency) {
  CachedResult Big;
  Big.Ok = true;
  Big.Diagnostics.assign(1000, 'd');
  size_t EntryBytes = Big.byteSize();

  ResultCache::Config C;
  C.MemBudgetBytes = 2 * EntryBytes + EntryBytes / 2; // Room for two.
  ResultCache Cache(C);

  CacheKey A = CacheKey::of("a"), B = CacheKey::of("b"),
           D = CacheKey::of("d");
  Cache.store(A, Big);
  Cache.store(B, Big);
  EXPECT_TRUE(Cache.lookup(A).has_value()); // A is now most recent.
  Cache.store(D, Big);                      // Evicts B, not A.
  EXPECT_TRUE(Cache.lookup(A).has_value());
  EXPECT_FALSE(Cache.lookup(B).has_value());
  EXPECT_TRUE(Cache.lookup(D).has_value());
}

TEST(ResultCacheTest, SingleOversizeEntryStaysResident) {
  CachedResult Big;
  Big.Ok = true;
  Big.Diagnostics.assign(4096, 'd');
  ResultCache::Config C;
  C.MemBudgetBytes = 16; // Smaller than any entry.
  ResultCache Cache(C);
  CacheKey K = CacheKey::of("oversize");
  Cache.store(K, Big);
  // The most recent entry is never evicted, so the cache still functions.
  EXPECT_TRUE(Cache.lookup(K).has_value());
  EXPECT_EQ(Cache.stats().Entries, 1);
}

//===----------------------------------------------------------------------===//
// Single-flight concurrency
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, ConcurrentIdenticalRequestsComputeOnce) {
  ResultCache Cache;
  CacheKey K = CacheKey::of("contended");
  std::atomic<int> Computes{0};
  std::atomic<int> Hits{0};

  ThreadPool Pool(8);
  for (int I = 0; I != 8; ++I)
    Pool.async([&] {
      bool Hit = false;
      CachedResult R = Cache.getOrCompute(
          K,
          [&] {
            ++Computes;
            // Widen the race window so every other thread queues behind the
            // in-flight computation instead of finishing first.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            CachedResult Out;
            Out.Ok = true;
            Out.Diagnostics = "computed once";
            return Out;
          },
          &Hit);
      EXPECT_EQ(R.Diagnostics, "computed once");
      if (Hit)
        ++Hits;
    });
  Pool.wait();

  EXPECT_EQ(Computes.load(), 1) << "single-flight must dedupe the compute";
  EXPECT_EQ(Hits.load(), 7);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1);
  EXPECT_EQ(S.Hits, 7);
}

TEST(ResultCacheTest, ConcurrentDistinctKeysDoNotSerialize) {
  ResultCache Cache;
  std::atomic<int> Computes{0};
  ThreadPool Pool(8);
  for (int I = 0; I != 64; ++I)
    Pool.async([&Cache, &Computes, I] {
      CacheKey K = CacheKey::of("key " + std::to_string(I % 16));
      Cache.getOrCompute(K, [&] {
        ++Computes;
        CachedResult R;
        R.Ok = true;
        R.Diagnostics = std::to_string(I % 16);
        return R;
      });
    });
  Pool.wait();
  // Every key computed at least once and never produced a wrong value;
  // single-flight plus memory hits bound computes by the key count.
  EXPECT_EQ(Computes.load(), 16);
  for (int I = 0; I != 16; ++I) {
    auto R = Cache.lookup(CacheKey::of("key " + std::to_string(I)));
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->Diagnostics, std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// Routine-granularity incremental recompilation
//===----------------------------------------------------------------------===//

namespace {

/// \p N copies of a jacobi-like routine (r0..rN-1) behind a shared
/// program/param prelude. \p EditedIdx >= 0 rewrites that routine's stencil
/// in place — same line count, so every other routine keeps its start line.
std::string multiRoutineSource(int N, int EditedIdx = -1) {
  std::string Src = "program multi\nparam n = 64\n";
  for (int I = 0; I != N; ++I) {
    const char *Rhs = I == EditedIdx ? "b(1:n-2) + b(1:n-2)" : "b(1:n-2) + b(3:n)";
    Src += "routine r" + std::to_string(I) + "\n";
    Src += "real a(n) distribute (block)\n";
    Src += "real b(n) distribute (block)\n";
    Src += "begin\n";
    Src += "  do t = 1, 4\n";
    Src += std::string("    a(2:n-1) = ") + Rhs + "\n";
    Src += "    b(1:n) = a(1:n)\n";
    Src += "  end do\n";
    Src += "end\n";
  }
  return Src;
}

/// Compiles \p Src through CachedPipeline (or plainly when \p Cache is
/// null) and renders everything observable.
Observed compileObserved(const std::string &Src, const CompileOptions &Opts,
                         ResultCache *Cache) {
  Session S(Src, Opts);
  if (Cache) {
    CachedPipeline CP(*Cache);
    CP.run(S);
  } else {
    S.run();
  }
  return observe(S);
}

CompileOptions routineCacheOptions() {
  CompileOptions Opts;
  Opts.Lint = true; // No DumpAfter: dump hooks disable routine caching.
  return Opts;
}

} // namespace

TEST(RoutineCacheTest, SlicingFindsEveryRoutineAndThePrelude) {
  std::string Src = multiRoutineSource(3);
  std::string Prelude;
  std::vector<RoutineSlice> Slices = sliceRoutineSources(Src, Prelude);
  ASSERT_EQ(Slices.size(), 3u);
  EXPECT_EQ(Prelude, "program multi\nparam n = 64\n");
  std::string Rebuilt = Prelude;
  int Line = 3; // Prelude is two lines; first marker is line 3.
  for (size_t I = 0; I != Slices.size(); ++I) {
    std::string Name = "r";
    Name += std::to_string(I);
    EXPECT_EQ(Slices[I].Name, Name);
    EXPECT_EQ(Slices[I].StartLine, Line);
    Line += 9; // Each routine block is nine lines.
    Rebuilt += Slices[I].Text;
  }
  // Slicing is a partition: prelude + slices reassemble the exact source.
  EXPECT_EQ(Rebuilt, Src);

  // No markers -> no slices (implicit single routine; whole-file entry
  // already covers it).
  std::string Single = "program s\nreal a(4) distribute (block)\nbegin\na = 1\nend\n";
  EXPECT_TRUE(sliceRoutineSources(Single, Prelude).empty());
}

TEST(RoutineCacheTest, OneEditRecompilesExactlyOneRoutine) {
  // The acceptance scenario: a 10-routine file, one in-place edit. The
  // second compile misses at whole-file granularity but must replay the
  // nine untouched routines — exactly 1 routine miss, 9 routine hits — and
  // its output must be bitwise-identical to an uncached compile.
  ResultCache Cache;
  CompileOptions Opts = routineCacheOptions();
  std::string A = multiRoutineSource(10);
  std::string B = multiRoutineSource(10, /*EditedIdx=*/4);

  Observed Cold = compileObserved(A, Opts, &Cache);
  ASSERT_TRUE(Cold.Ok);
  CacheStats S0 = Cache.stats();
  EXPECT_EQ(S0.Misses, 1);
  EXPECT_EQ(S0.RoutineMisses, 10);
  EXPECT_EQ(S0.RoutineHits, 0);

  Session S(B, Opts);
  EXPECT_FALSE(CachedPipeline(Cache).run(S));
  ASSERT_TRUE(S.Result.Ok) << S.Result.Errors;
  CacheStats S1 = Cache.stats();
  EXPECT_EQ(S1.Misses, 2);
  EXPECT_EQ(S1.RoutineHits, 9);
  EXPECT_EQ(S1.RoutineMisses, 11);
  // Only the edited routine is parsed and given an analysis context; the
  // other nine exist as their cached artifacts alone, yet frontend.routines
  // still counts every routine of the file.
  EXPECT_EQ(S.Result.Prog->Routines.size(), 1u);
  ASSERT_EQ(S.Result.Routines.size(), 1u);
  EXPECT_EQ(S.Result.Routines[0].R->name(), "r4");
  EXPECT_EQ(S.Stats.get("frontend.routines"), 10);

  EXPECT_EQ(observe(S), compileObserved(B, Opts, nullptr));
}

TEST(RoutineCacheTest, StartLineShiftInvalidatesLaterRoutines) {
  // Growing the first routine by a line shifts every later routine's start
  // line. Cached diagnostics carry absolute line numbers, so all of them
  // must miss — the start line is key material, not just the slice text.
  ResultCache Cache;
  CompileOptions Opts = routineCacheOptions();
  std::string A = multiRoutineSource(5);
  std::string Grown = A;
  size_t FirstDo = Grown.find("  do t = 1, 4\n");
  ASSERT_NE(FirstDo, std::string::npos);
  Grown.insert(FirstDo, "  a(1:n) = b(1:n)\n");

  Observed Cold = compileObserved(A, Opts, &Cache);
  ASSERT_TRUE(Cold.Ok);
  Observed Warm = compileObserved(Grown, Opts, &Cache);
  ASSERT_TRUE(Warm.Ok);
  CacheStats S1 = Cache.stats();
  EXPECT_EQ(S1.RoutineHits, 0);
  EXPECT_EQ(S1.RoutineMisses, 10);
  EXPECT_EQ(Warm, compileObserved(Grown, Opts, nullptr));
}

TEST(RoutineCacheTest, ReplayedLintWarningsAreBitwiseIdentical) {
  // A routine whose global placement brings no improvement draws a
  // [no-comm-benefit] lint warning with an absolute source line. Replaying
  // it from the routine cache must reproduce the warning byte-for-byte.
  auto Jacobi = [](const char *Init) {
    std::string Src = "program jac\nparam n = 32\nparam nsteps = 4\n";
    for (const char *Name : {"ja", "jb"}) {
      Src += std::string("routine ") + Name + "\n";
      Src += "real u(n,n) distribute (block,block)\n";
      Src += "real unew(n,n) distribute (block,block)\n";
      Src += "real resid\n";
      Src += "begin\n";
      Src += std::string("  u = ") + (Name[1] == 'a' ? Init : "1") + "\n";
      Src += "  unew = 0\n";
      Src += "  do t = 1, nsteps\n";
      Src += "    unew(2:n-1,2:n-1) = u(1:n-2,2:n-1) + u(3:n,2:n-1)\n";
      Src += "    resid = sum(unew(1,1:n))\n";
      Src += "    u(1:n,1:n) = unew(1:n,1:n)\n";
      Src += "  end do\n";
      Src += "end\n";
    }
    return Src;
  };
  ResultCache Cache;
  CompileOptions Opts = routineCacheOptions();
  std::string A = Jacobi("1");
  std::string B = Jacobi("2"); // In-place edit of routine `ja` only.

  Observed Cold = compileObserved(A, Opts, &Cache);
  ASSERT_TRUE(Cold.Ok);
  Observed Warm = compileObserved(B, Opts, &Cache);
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Cache.stats().RoutineHits, 1); // `jb` replays, `ja` recomputes.
  Observed Ref = compileObserved(B, Opts, nullptr);
  EXPECT_FALSE(Ref.Diagnostics.empty()); // The warning must exist to replay.
  EXPECT_EQ(Warm.Diagnostics, Ref.Diagnostics);
  EXPECT_EQ(Warm, Ref);
}

TEST(RoutineCacheTest, GatesDisableRoutineCaching) {
  // Dump-after hooks need live IR for every routine, and a file without
  // `routine` markers has nothing finer than the whole-file entry: in both
  // cases the routine tallies must stay untouched.
  {
    ResultCache Cache;
    CompileOptions Opts = routineCacheOptions();
    Opts.DumpAfter = "placement";
    compileObserved(multiRoutineSource(4), Opts, &Cache);
    compileObserved(multiRoutineSource(4, 1), Opts, &Cache);
    EXPECT_EQ(Cache.stats().RoutineHits, 0);
    EXPECT_EQ(Cache.stats().RoutineMisses, 0);
  }
  {
    ResultCache Cache;
    CompileOptions Opts = routineCacheOptions();
    compileObserved(figure4Workload().Source, Opts, &Cache);
    compileObserved(figure4Workload().Source, Opts, &Cache);
    EXPECT_EQ(Cache.stats().Hits, 1);
    EXPECT_EQ(Cache.stats().RoutineHits, 0);
    EXPECT_EQ(Cache.stats().RoutineMisses, 0);
  }
}

TEST(RoutineCacheTest, RoutineKeySensitivity) {
  CompileOptions Opts = routineCacheOptions();
  std::string Prelude = "program p\nparam n = 8\n";
  std::string Text = "routine r\nbegin\nend\n";
  CacheKey K0 = routineCacheKey(Prelude, Text, 3, Opts);
  // Same inputs -> same key.
  EXPECT_EQ(K0.hex(), routineCacheKey(Prelude, Text, 3, Opts).hex());
  // Any ingredient flip -> different key.
  EXPECT_NE(K0.hex(), routineCacheKey(Prelude + "param m = 2\n", Text, 3, Opts).hex());
  EXPECT_NE(K0.hex(), routineCacheKey(Prelude, "routine r\nbegin\nend\n ", 3, Opts).hex());
  EXPECT_NE(K0.hex(), routineCacheKey(Prelude, Text, 4, Opts).hex());
  CompileOptions Strat = Opts;
  Strat.Placement.Strat = Strategy::Orig;
  EXPECT_NE(K0.hex(), routineCacheKey(Prelude, Text, 3, Strat).hex());
}

TEST(RoutineCacheTest, RoutineParamDoesNotLeakIntoLaterRoutines) {
  // A param declared inside r0 used to stay bound for r1, although r1's key
  // covers only the prelude and its own text: editing r0's value replayed
  // r1 as compiled under the old one. Routine params are now scoped to
  // their routine, so r1's use of `m` is an error, cached or not.
  auto Source = [](int M) {
    return "program leak\nparam n = 16\n"
           "routine r0\nparam m = " +
           std::to_string(M) +
           "\nreal a(n) distribute (block)\nbegin\n"
           "  a(2:m) = a(1:m-1)\nend\n"
           "routine r1\nreal z(m) distribute (block)\nbegin\n"
           "  z(2:m) = z(1:m-1)\nend\n";
  };
  ResultCache Cache;
  CompileOptions Opts = routineCacheOptions();
  compileObserved(Source(4), Opts, &Cache);
  Observed Cached = compileObserved(Source(12), Opts, &Cache);
  Observed Uncached = compileObserved(Source(12), Opts, nullptr);
  EXPECT_EQ(Cached, Uncached);
  EXPECT_FALSE(Uncached.Ok);
  EXPECT_NE(Uncached.Errors.find("unknown name 'm'"), std::string::npos)
      << Uncached.Errors;
}

TEST(RoutineCacheTest, ReplayedVerdictsMatchUncached) {
  // A routine's negative verdict (a verify violation) is one of
  // its cached artifacts: a pass that rejects r1 must reject it again when
  // r1 replays from the routine cache.
  Pipeline Checked;
  for (const Pass &Stage : Pipeline::standard().passes())
    Checked.add(Stage.Name, Stage.Fn);
  Checked.add("reject-r1", [](Session &S) {
    bool Ok = S.forEachRoutine(
        "reject-r1", [&](size_t I, StatsRegistry &Stats, DiagEngine &) {
          Stats.add("reject-r1.checked");
          return S.Result.Prog->Routines[I]->name() != "r1";
        });
    S.Result.VerifyOk = S.Result.VerifyOk && Ok;
    return true;
  });
  ResultCache Cache;
  CompileOptions Opts = routineCacheOptions();
  Session Cold(multiRoutineSource(4), Opts);
  CachedPipeline(Cache, Checked).run(Cold);
  EXPECT_FALSE(Cold.Result.VerifyOk);

  Session Warm(multiRoutineSource(4, /*EditedIdx=*/0), Opts);
  EXPECT_FALSE(CachedPipeline(Cache, Checked).run(Warm));
  EXPECT_EQ(Cache.stats().RoutineHits, 3);
  EXPECT_FALSE(Warm.Result.VerifyOk) << "r1's replayed verdict was lost";
  EXPECT_EQ(Warm.Stats.get("reject-r1.checked"), 4);
  Session Plain(multiRoutineSource(4, 0), Opts);
  Plain.run(Checked);
  EXPECT_FALSE(Plain.Result.VerifyOk);
  EXPECT_EQ(observe(Warm), observe(Plain));
}

//===----------------------------------------------------------------------===//
// Edit differential: seeded edit sequences, cached vs. uncached
//===----------------------------------------------------------------------===//

namespace {

/// A source cut at `routine` marker lines: the prelude lines, then one line
/// block per routine whose first line is its marker.
struct RoutineFile {
  std::vector<std::string> Prelude;
  std::vector<std::vector<std::string>> Routines;

  explicit RoutineFile(const std::string &Src) {
    std::istringstream In(Src);
    for (std::string Line; std::getline(In, Line);) {
      if (Line.rfind("routine ", 0) == 0)
        Routines.emplace_back();
      (Routines.empty() ? Prelude : Routines.back()).push_back(Line);
    }
  }

  std::string str() const {
    std::string Out;
    for (const std::string &L : Prelude)
      Out += L + "\n";
    for (const std::vector<std::string> &R : Routines)
      for (const std::string &L : R)
        Out += L + "\n";
    return Out;
  }
};

bool isAssignment(const std::string &Line) {
  size_t Begin = Line.find_first_not_of(' ');
  if (Begin == std::string::npos || Line.find(" = ") == std::string::npos)
    return false;
  size_t End = Line.find_first_of(" (", Begin);
  std::string First = Line.substr(Begin, End - Begin);
  for (const char *Keyword : {"do", "if", "end", "else", "begin", "real",
                              "param", "routine", "program"})
    if (First == Keyword)
      return false;
  return true;
}

/// `lhs = rhs` -> `lhs = rhs + rhs`: conformable, valid, one line.
std::string doubledRhs(const std::string &Line) {
  size_t Eq = Line.find(" = ");
  return Line + " + " + Line.substr(Eq + 3);
}

/// Bumps the first digit 0-8 that starts a number on the right-hand side
/// (a subscript offset or a literal, never part of a name), which moves
/// communication; doubles the RHS when there is none.
std::string bumpedRhs(const std::string &Line) {
  std::string Out = Line;
  for (size_t I = Line.find(" = ") + 3; I < Out.size(); ++I)
    if (Out[I] >= '0' && Out[I] <= '8' && !std::isalnum(Out[I - 1]) &&
        Out[I - 1] != '_') {
      ++Out[I];
      return Out;
    }
  return doubledRhs(Line);
}

/// True for an assignment to an array section, e.g. `a(2:n-1) = ...`.
bool assignsSection(const std::string &Line) {
  std::string Lhs = Line.substr(0, Line.find(" = "));
  return Lhs.find('(') != std::string::npos &&
         Lhs.find(':') != std::string::npos;
}

/// Breaks assignment \p Line with a lex, parse or scalarize error; the
/// scalarize error needs a section target (assignsSection). An error that
/// stays on its line recovers the same whether the routine is parsed alone
/// or in its file.
std::string brokenLine(const std::string &Line, const std::string &Error) {
  if (Error == "lex error")
    return Line + " @";
  if (Error == "parse error")
    return Line + " )";
  // An element of the target array against its section: nonconforming.
  std::string Lhs = Line.substr(0, Line.find(" = "));
  size_t Begin = Lhs.find_first_not_of(' '), Paren = Lhs.find('(');
  std::string Elem = Lhs.substr(Begin, Paren - Begin) + "(1";
  for (char C : Lhs.substr(Paren))
    if (C == ',')
      Elem += ",1";
  return Line + " + " + Elem + ")";
}

struct EditStep {
  std::string What; ///< For failure messages.
  std::string Source;
  bool OneRoutineInPlace = false;
};

enum class EditKind {
  InPlace,
  ShiftLines,
  PreludeParam,
  AddRoutine,
  RemoveRoutine,
  RenameRoutine,
  ReorderRoutines,
  BreakThenFix,
};

/// A seeded sequence of edits to \p Start covering every edit class: in
/// place, line-shifting, prelude params, routines added, removed, renamed
/// and reordered, and an error (lex, parse, scalarize, or a routine left
/// without its `end`) followed by its fix. \p Long adds a few more of the
/// common classes.
std::vector<EditStep> editSequence(const std::string &Start, uint64_t Seed,
                                   bool Long) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  RoutineFile F(Start);
  std::vector<EditStep> Steps;
  int Fresh = 0;
  auto Emit = [&](const std::string &What, bool OneRoutine = false) {
    Steps.push_back({What, F.str(), OneRoutine});
  };
  auto NameOf = [&](size_t R) { return F.Routines[R][0].substr(8); };
  // A random assignment line of routine R (to a section when \p Section),
  // or 0 when it has none.
  auto AssignmentOf = [&](size_t R, bool Section = false) -> size_t {
    std::vector<size_t> Lines;
    for (size_t L = 1; L < F.Routines[R].size(); ++L)
      if (isAssignment(F.Routines[R][L]) &&
          (!Section || assignsSection(F.Routines[R][L])))
        Lines.push_back(L);
    return Lines.empty() ? 0 : Lines[Pick(Lines.size())];
  };
  const char *const Errors[] = {"scalarize error", "lex error",
                                "parse error", "unterminated routine"};
  size_t NextError = Pick(4);

  std::vector<EditKind> Kinds = {
      EditKind::InPlace,       EditKind::ShiftLines,
      EditKind::PreludeParam,  EditKind::AddRoutine,
      EditKind::RemoveRoutine, EditKind::RenameRoutine,
      EditKind::ReorderRoutines, EditKind::BreakThenFix};
  if (Long)
    Kinds.insert(Kinds.end(),
                 {EditKind::InPlace, EditKind::InPlace, EditKind::ShiftLines,
                  EditKind::BreakThenFix, EditKind::BreakThenFix,
                  EditKind::BreakThenFix});
  std::shuffle(Kinds.begin(), Kinds.end(), Rng);
  for (EditKind K : Kinds) {
    size_t R = Pick(F.Routines.size());
    std::vector<std::string> &Lines = F.Routines[R];
    size_t L = AssignmentOf(R);
    switch (K) {
    case EditKind::InPlace:
      if (!L)
        break;
      Lines[L] = Pick(2) ? bumpedRhs(Lines[L]) : doubledRhs(Lines[L]);
      Emit("in-place edit of " + NameOf(R), /*OneRoutine=*/true);
      break;
    case EditKind::ShiftLines:
      if (!L)
        break;
      if (Pick(2))
        Lines.insert(Lines.begin() + static_cast<long>(L), Lines[L]);
      else
        Lines.erase(Lines.begin() + static_cast<long>(L));
      Emit("line-shifting edit of " + NameOf(R));
      break;
    case EditKind::PreludeParam:
      if (Pick(2)) {
        F.Prelude.push_back("param extra" + std::to_string(Fresh++) +
                            " = 3");
      } else {
        for (std::string &P : F.Prelude)
          if (P.rfind("param ", 0) == 0) {
            P = P.substr(0, P.find(" = ") + 3) +
                std::to_string(std::stoi(P.substr(P.find(" = ") + 3)) + 4);
            break;
          }
      }
      Emit("prelude param edit");
      break;
    case EditKind::AddRoutine: {
      std::vector<std::string> Copy = Lines;
      Copy[0] = "routine added" + std::to_string(Fresh++);
      F.Routines.insert(F.Routines.begin() +
                            static_cast<long>(Pick(F.Routines.size() + 1)),
                        std::move(Copy));
      Emit("routine added");
      break;
    }
    case EditKind::RemoveRoutine:
      // Dropping the last routine leaves every other one where it was: a
      // whole-file miss in which every routine hits.
      if (F.Routines.size() < 2)
        break;
      F.Routines.pop_back();
      Emit("last routine removed");
      break;
    case EditKind::RenameRoutine:
      Lines[0] = "routine renamed" + std::to_string(Fresh++);
      Emit("routine renamed");
      break;
    case EditKind::ReorderRoutines: {
      if (F.Routines.size() < 2)
        break;
      size_t Other = (R + 1 + Pick(F.Routines.size() - 1)) % F.Routines.size();
      std::swap(F.Routines[R], F.Routines[Other]);
      Emit("routines reordered");
      break;
    }
    case EditKind::BreakThenFix: {
      // Each break takes the next error kind, so a long sequence has all
      // four.
      std::string What = Errors[NextError++ % 4];
      if (What == "unterminated routine") {
        // Without its `end`, a routine's whole-file parse runs on into the
        // next routine: its errors differ from those of the routine parsed
        // alone, so the compile must fall back to the whole-file parse.
        if (R + 1 == F.Routines.size() || Lines.back() != "end")
          break;
        Lines.pop_back();
        Emit(What + " " + NameOf(R));
        Lines.push_back("end");
        Emit("fix of the " + What);
        break;
      }
      if (What == "scalarize error")
        L = AssignmentOf(R, /*Section=*/true);
      if (!L)
        break;
      std::string Original = Lines[L];
      Lines[L] = brokenLine(Original, What);
      Emit(What + " in " + NameOf(R));
      // Either restore the line (a whole-file hit) or fix it differently.
      Lines[L] = Pick(2) ? Original : doubledRhs(Original);
      Emit("fix of the " + What);
      break;
    }
    }
  }
  return Steps;
}

class RoutineEditDifferential
    : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(RoutineEditDifferential, CachedEqualsUncachedAtEveryStep) {
  std::string Name = GetParam();
  // The 8x150-nest file costs about a quarter second per uncached compile
  // in an asserts build; one configuration and the shorter sequence keep
  // the test in the tier-1 time budget.
  bool Large = Name == "synth8x150";
  std::string Start;
  if (Name == "multi")
    Start = multiRoutineSource(8);
  else if (Name == "hydflo")
    Start = hydfloWorkload().Source;
  else if (Name == "trimesh")
    Start = trimeshWorkload().Source;
  else
    Start = synthRoutinesSource(8, 150, /*FirstSeed=*/7);
  std::vector<EditStep> Steps = editSequence(Start, fnv1a64(Name), !Large);

  struct Config {
    const char *Name;
    Strategy Strat;
    bool Fuse;
  };
  std::vector<Config> Configs = {{"comb", Strategy::Global, false},
                                 {"orig", Strategy::Orig, false},
                                 {"comb --fuse", Strategy::Global, true}};
  if (Large)
    Configs.resize(1);
  // The cached compiles spread their missed routines over a pool; the
  // uncached reference compiles serially.
  ThreadPool Pool(3);
  for (const Config &C : Configs) {
    SCOPED_TRACE(C.Name);
    CompileOptions Opts;
    Opts.Placement.Strat = C.Strat;
    Opts.FuseLoops = C.Fuse;
    Opts.Verify = VerifyMode::Final;
    Opts.Lint = true;
    ResultCache Cache;
    Session First(Start, Opts, &Pool);
    CachedPipeline(Cache).run(First);
    for (size_t I = 0; I != Steps.size(); ++I) {
      const EditStep &Step = Steps[I];
      SCOPED_TRACE("step " + std::to_string(I) + ": " + Step.What);
      CacheStats Before = Cache.stats();
      Session Cached(Step.Source, Opts, &Pool);
      bool WholeFileHit = CachedPipeline(Cache).run(Cached);
      size_t LiveRoutines = Cached.Result.Routines.size();
      Observed Got = observe(Cached);
      Observed Want = compileObserved(Step.Source, Opts, nullptr);
      if (WholeFileHit)
        Got.PassCounters = Want.PassCounters;
      EXPECT_EQ(Got.Output, Want.Output);
      EXPECT_EQ(Got, Want);
      if (Step.OneRoutineInPlace) {
        CacheStats After = Cache.stats();
        EXPECT_EQ(After.RoutineMisses - Before.RoutineMisses, 1);
        EXPECT_EQ(LiveRoutines, 1u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EditSequences, RoutineEditDifferential,
                         ::testing::Values("multi", "hydflo", "trimesh",
                                           "synth8x150"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });
