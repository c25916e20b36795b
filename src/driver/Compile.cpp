//===- driver/Compile.cpp - One-call compilation pipeline -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/Compile.h"

#include "driver/CachedPipeline.h"
#include "driver/Pipeline.h"

using namespace gca;

const RoutineResult *CompileResult::find(const std::string &Name) const {
  for (const RoutineResult &R : Routines)
    if (R.R->name() == Name)
      return &R;
  return nullptr;
}

std::string CompileResult::planText() const {
  std::string Out;
  if (!PlanTexts.empty() || FromCache) {
    for (const auto &[Name, Text] : PlanTexts)
      Out += Text;
    return Out;
  }
  for (const RoutineResult &RR : Routines)
    Out += RR.Plan.str(*RR.R);
  return Out;
}

CompileResult gca::compileSource(const std::string &Source,
                                 const CompileOptions &Opts) {
  Session S(Source, Opts);
  S.run();
  return S.take();
}

CompileResult gca::compileSource(const std::string &Source,
                                 const CompileOptions &Opts,
                                 ResultCache *Cache) {
  if (!Cache)
    return compileSource(Source, Opts);
  Session S(Source, Opts);
  CachedPipeline CP(*Cache);
  CP.run(S);
  return S.take();
}
