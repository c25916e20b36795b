//===- tools/gca-lint.cpp - Plan verification + communication lint CLI ----===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Compiles an HPF-lite program, verifies the communication plan of every
// routine (analysis/AvailDataflow.h: structure, combining legality and
// all-paths availability), and runs the communication lints
// (analysis/CommLint.h). Diagnostics print to stderr; the exit status is
// nonzero on compile errors or verify violations (and, under --werror, on
// any lint warning).
//
//   $ gca-lint prog.hpf
//   $ gca-lint --json prog.hpf          # machine-readable verify reports
//   $ gca-lint --werror prog.hpf        # warnings are fatal
//   $ gca-lint -p n=128 prog.hpf        # override a param declaration
//
//===----------------------------------------------------------------------===//

#include "driver/Compile.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace gca;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--werror] [--no-lint] "
               "[-p name=value]... <file.hpf>\n",
               Argv0);
  return 2;
}

int main(int argc, char **argv) {
  std::string Path;
  bool Json = false, Werror = false, Lint = true;
  ParamMap Params;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--werror") {
      Werror = true;
    } else if (Arg == "--no-lint") {
      Lint = false;
    } else if (Arg == "-p") {
      const char *Eq = I + 1 < argc ? std::strchr(argv[I + 1], '=') : nullptr;
      int64_t Value = 0;
      if (!Eq || !parseInt64(Eq + 1, Value))
        return usage(argv[0]);
      Params[std::string(argv[I + 1], Eq - argv[I + 1])] = Value;
      ++I;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (Path.empty())
    return usage(argv[0]);

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  CompileOptions Opts;
  Opts.Params = Params;
  Opts.Verify = VerifyMode::Final;
  Opts.Lint = Lint;
  CompileResult R = compileSource(SS.str(), Opts);
  if (!R.Ok) {
    std::fprintf(stderr, "%s", R.Errors.c_str());
    return 1;
  }

  std::fprintf(stderr, "%s", R.Diagnostics.c_str());
  if (Json)
    for (const RoutineResult &RR : R.Routines)
      std::printf("{\"routine\":\"%s\",\"verify\":%s}\n",
                  RR.R->name().c_str(), RR.Verify.json().c_str());
  // ferror is sticky: a --json report truncated by a full disk or closed
  // pipe must fail the run, not silently pass.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: write to stdout failed\n");
    return 1;
  }

  if (!R.VerifyOk)
    return 1;
  if (Werror && !R.Diagnostics.empty())
    return 1;
  return 0;
}
