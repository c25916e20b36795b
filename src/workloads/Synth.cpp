//===- workloads/Synth.cpp - Synthetic workload generator -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "workloads/Synth.h"

#include "support/StrUtil.h"

using namespace gca;

namespace {

/// SplitMix64, same update as the fuzz harness PRNG (tests/FuzzGen.h) so a
/// synth workload is reproducible from its seed alone.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 12345) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  int range(int Lo, int Hi) { // Inclusive.
    return Lo + static_cast<int>(next() % (Hi - Lo + 1));
  }
  bool chance(int Percent) { return range(1, 100) <= Percent; }

private:
  uint64_t State;
};

} // namespace

std::string gca::synthRoutinesSource(int Routines, int Nests,
                                     uint64_t FirstSeed) {
  std::string Src = "program project\nparam n = 64\n";
  for (int I = 0; I != Routines; ++I) {
    SynthSpec Spec;
    Spec.Nests = Nests;
    Spec.Seed = FirstSeed + static_cast<uint64_t>(I);
    std::string Body = synthSource(Spec);
    // Drop the generated program's own `program` and `param` lines.
    Body.erase(0, Body.find('\n', Body.find('\n') + 1) + 1);
    Src += "routine r" + std::to_string(I) + "\n" + Body;
  }
  return Src;
}

std::string gca::synthName(const SynthSpec &Spec) {
  return strFormat("synth:N=%d,seed=%llu", Spec.Nests,
                   static_cast<unsigned long long>(Spec.Seed));
}

std::string gca::synthSource(const SynthSpec &Spec) {
  Rng R(Spec.Seed);
  int NumArrays = Spec.NumArrays < 2 ? 2 : Spec.NumArrays;

  std::string Src = "program synth\nparam n = " +
                    std::to_string(Spec.Extent < 8 ? 8 : Spec.Extent) + "\n";
  std::vector<std::string> Arrays;
  for (int A = 0; A != NumArrays; ++A) {
    std::string Name = strFormat("a%d", A);
    Arrays.push_back(Name);
    Src += "real " + Name + "(n,n) distribute (block,block)\n";
  }
  Src += "real s\nbegin\n";
  for (const std::string &A : Arrays)
    Src += "  " + A + " = 1\n";

  // Interior section shifted by (Di, Dj); conforms with the (3:n-2,3:n-2)
  // lhs for any |Di|,|Dj| <= 2.
  auto Ref = [&](const std::string &Name, int Di, int Dj) {
    return strFormat("%s(%d:n-%d,%d:n-%d)", Name.c_str(), 3 + Di, 2 - Di,
                     3 + Dj, 2 - Dj);
  };

  Src += "  do t = 1, 2\n";
  std::string Base = "    ";
  std::string Pad = Base;
  int OpenIf = 0;     // Statements left inside an open branch.
  int OpenLoop = 0;   // Statements left inside an open inner loop.
  int LoopId = 0;
  // The most recent stencil reference, replayed verbatim now and then so the
  // redundancy-elimination pass always has same-descriptor work at scale.
  std::string LastRef;

  for (int S = 0; S != Spec.Nests; ++S) {
    if (OpenLoop == 0 && OpenIf == 0 && Spec.InnerLoopEvery > 0 &&
        S % Spec.InnerLoopEvery == Spec.InnerLoopEvery - 1) {
      Src += Pad + strFormat("do k%d = 1, 2\n", LoopId++);
      Pad += "  ";
      OpenLoop = R.range(2, 4);
    }
    if (OpenIf == 0 && R.chance(15)) {
      Src += Pad + "if (c" + std::to_string(S) + ") then\n";
      Pad += "  ";
      OpenIf = R.range(1, 2);
    }

    if (R.chance(12)) {
      // A reduction over a random array's row.
      Src += Pad + strFormat("s = sum(%s(%d,1:n))\n",
                             Arrays[R.range(0, NumArrays - 1)].c_str(),
                             R.range(1, 4));
    } else if (!LastRef.empty() && R.chance(18)) {
      // Exact re-read of the previous stencil reference.
      Src += Pad + strFormat("a%d(3:n-2,3:n-2) = ", R.range(0, NumArrays - 1)) +
             LastRef + "\n";
    } else {
      int Terms = R.range(1, 4);
      std::string Stmt =
          Pad + strFormat("a%d(3:n-2,3:n-2) = ", R.range(0, NumArrays - 1));
      for (int T = 0; T != Terms; ++T) {
        int Rhs = R.range(0, NumArrays - 1);
        int Di = R.range(-2, 2), Dj = R.range(-2, 2);
        if (T)
          Stmt += " + ";
        std::string RefStr = Ref(Arrays[Rhs], Di, Dj);
        if (T == 0)
          LastRef = RefStr;
        Stmt += RefStr;
      }
      Src += Stmt + "\n";
    }

    if (OpenIf > 0 && --OpenIf == 0) {
      Pad = Pad.substr(2);
      Src += Pad + "end if\n";
    }
    if (OpenIf == 0 && OpenLoop > 0 && --OpenLoop == 0) {
      Pad = Pad.substr(2);
      Src += Pad + "end do\n";
    }
  }
  if (OpenIf > 0) {
    Pad = Pad.substr(2);
    Src += Pad + "end if\n";
  }
  if (OpenLoop > 0) {
    Pad = Pad.substr(2);
    Src += Pad + "end do\n";
  }
  Src += "  end do\nend\n";
  return Src;
}
