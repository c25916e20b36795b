//===- workloads/Synth.h - Synthetic workload generator ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic synthetic-workload generator for scaling studies of the
/// placement engine. The paper's evaluation routines top out at a few dozen
/// communication entries; the asymptotics of subset elimination, redundancy
/// elimination, and combining only show at hundreds to thousands of entries,
/// so the benchmark/regression-gate workloads are generated: `N` statement
/// nests over a pool of distributed arrays, mixing shift stencils (including
/// diagonals that decompose into linked axis phases), row broadcasts, global
/// reductions, and deliberate exact re-reads (redundancy-elimination
/// fodder), optionally wrapped in inner loops so candidate ranges span
/// several dominator-tree levels.
///
/// The mapping (spec -> source text) is a pure function of the spec,
/// including the seed, so bench baselines and regression comparisons are
/// reproducible across machines and runs.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_WORKLOADS_SYNTH_H
#define GCA_WORKLOADS_SYNTH_H

#include <cstdint>
#include <string>

namespace gca {

/// Shape of one generated workload.
struct SynthSpec {
  /// Number of statement nests in the timestep body. Each nest yields
  /// roughly 2.5 communication entries on average (stencil statements carry
  /// 1-4 distinct-pattern references; reductions and broadcasts one each).
  int Nests = 100;
  /// PRNG seed; same (seed, knobs) -> byte-identical source.
  uint64_t Seed = 1;
  /// Distributed (n,n) arrays in the pool.
  int NumArrays = 8;
  /// Per-dimension problem size (the `n` param; overridable with -p n=...).
  int Extent = 64;
  /// Wrap every K-th run of statements in an inner `do` loop whose bounds
  /// are communication-invariant, giving those entries multi-level
  /// placement ranges. 0 disables inner loops.
  int InnerLoopEvery = 8;
};

/// The generated program text.
std::string synthSource(const SynthSpec &Spec);

/// A multi-routine file: \p Routines `routine` blocks behind one prelude
/// (`program project`, `param n = 64`), block I holding the body of the
/// \p Nests-nest program of seed \p FirstSeed + I. The shape of the files a
/// compile server sees edited.
std::string synthRoutinesSource(int Routines, int Nests, uint64_t FirstSeed);

/// "synth:N=<nests>,seed=<seed>" — the input name used by drivers and
/// benchmarks for a generated workload.
std::string synthName(const SynthSpec &Spec);

} // namespace gca

#endif // GCA_WORKLOADS_SYNTH_H
