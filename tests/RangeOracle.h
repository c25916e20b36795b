//===- tests/RangeOracle.h - indexed vs. reference range analysis -*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The range-analysis oracle: compiles a program and, for every
/// communication entry, reruns the indexed range analysis
/// (analyzeEntryPlacement) and the reference one
/// (analyzeEntryPlacementReference: reaching-def enumeration for Latest, the
/// walk over every phi parameter for Earliest). Both must produce the same
/// Earliest and Latest slots, communication level and candidate list.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_TESTS_RANGEORACLE_H
#define GCA_TESTS_RANGEORACLE_H

#include "core/EarliestLatest.h"
#include "driver/Compile.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace gca {

/// The option sets the oracle checks small inputs under: the default
/// pipeline, no scalarization (array-syntax uses), and loop fusion.
inline std::vector<std::pair<std::string, CompileOptions>>
rangeOracleOptionSets() {
  CompileOptions Default, NoScalarize, Fuse;
  NoScalarize.Scalarize = false;
  Fuse.FuseLoops = true;
  return {{"default", Default},
          {"--no-scalarize", NoScalarize},
          {"--fuse", Fuse}};
}

/// Work totals of one oracle run: the indexed analysis' and the reference's.
struct RangeOracleWork {
  RangeWork Indexed, Reference;
  int64_t Entries = 0;
};

/// Compiles \p Src under \p Opts (audit, verification and lint off: the
/// oracle checks the range analysis only) and compares the two range
/// analyses on every entry; \p What names the input in failure messages.
inline RangeOracleWork expectRangeMatchesReference(const std::string &Src,
                                                   CompileOptions Opts,
                                                   const std::string &What) {
  Opts.Audit = false;
  Opts.Verify = VerifyMode::Off;
  Opts.Lint = false;
  RangeOracleWork Work;
  CompileResult R = compileSource(Src, Opts);
  EXPECT_TRUE(R.Ok) << What << ": " << R.Errors;
  std::vector<Slot> Indexed, Reference;
  for (const RoutineResult &RR : R.Routines) {
    for (const CommEntry &E : RR.Plan.Entries) {
      CommEntry A = E, B = E;
      analyzeEntryPlacement(*RR.Ctx, A, Opts.Placement, Indexed,
                            Work.Indexed);
      analyzeEntryPlacementReference(*RR.Ctx, B, Opts.Placement, Reference,
                                     Work.Reference);
      ++Work.Entries;
      const bool Same = A.EarliestSlot == B.EarliestSlot &&
                        A.LatestSlot == B.LatestSlot &&
                        A.CommLevel == B.CommLevel && Indexed == Reference;
      EXPECT_TRUE(Same) << What << " routine " << RR.R->name() << " entry "
                        << E.Id << ": indexed earliest=(B"
                        << A.EarliestSlot.Node << "," << A.EarliestSlot.Index
                        << ") latest=(B" << A.LatestSlot.Node << ","
                        << A.LatestSlot.Index << ") level=" << A.CommLevel
                        << " candidates=" << Indexed.size()
                        << "; reference earliest=(B" << B.EarliestSlot.Node
                        << "," << B.EarliestSlot.Index << ") latest=(B"
                        << B.LatestSlot.Node << "," << B.LatestSlot.Index
                        << ") level=" << B.CommLevel
                        << " candidates=" << Reference.size();
      if (!Same)
        return Work; // One report per input is enough.
    }
  }
  return Work;
}

} // namespace gca

#endif // GCA_TESTS_RANGEORACLE_H
