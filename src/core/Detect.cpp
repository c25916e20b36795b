//===- core/Detect.cpp - Communication requirement detection --------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "core/Detect.h"

#include <cassert>
#include <cstdlib>

using namespace gca;

/// The distributed dimensions of \p A, in order (template dim k is array dim
/// DistDims[k]).
static std::vector<unsigned> distDimsOf(const ArrayDecl &A) {
  std::vector<unsigned> Out;
  for (unsigned D = 0, E = A.rank(); D != E; ++D)
    if (A.Dist[D] != DistKind::Star)
      Out.push_back(D);
  return Out;
}

Mapping gca::classifyRef(const Routine &R, const AssignStmt *S,
                         const ArrayRef &Ref, bool IsSum) {
  const ArrayDecl &RA = R.array(Ref.ArrayId);
  TemplateSig SigR = templateSigOf(RA);
  std::vector<unsigned> DimsR = distDimsOf(RA);

  // Replicated arrays are available everywhere.
  if (SigR.rank() == 0 && !IsSum)
    return Mapping::local();

  // Reductions: partial sums happen on the owners; the global combine runs
  // over the template dims the reduced section spans, and the result is
  // replicated (Section 6.2).
  if (IsSum) {
    if (SigR.rank() == 0)
      return Mapping::local(); // Replicated operand: purely local sum.
    std::vector<uint8_t> RD(SigR.rank(), 0);
    for (unsigned K = 0; K != DimsR.size(); ++K) {
      const Subscript &Sub = Ref.Subs[DimsR[K]];
      // A ranged (or variable) subscript spans processors along this
      // template dim, so the combine must run across it.
      if (Sub.isRange() || !Sub.Lo.isConstant())
        RD[K] = 1;
    }
    return Mapping::reduce(std::move(SigR), std::move(RD));
  }

  if (S->lhsIsScalar()) {
    // A plain distributed reference feeding a (replicated) scalar: every
    // processor needs the value. A single constant position is a broadcast;
    // anything else is unstructured.
    bool AllConst = true;
    for (unsigned K = 0; K != DimsR.size(); ++K) {
      const Subscript &Sub = Ref.Subs[DimsR[K]];
      AllConst &= Sub.isElem() && Sub.Lo.isConstant();
    }
    if (AllConst && !DimsR.empty()) {
      const Subscript &Sub = Ref.Subs[DimsR[0]];
      return Mapping::bcast(std::move(SigR), 0, Sub.Lo.constValue());
    }
    return Mapping::general(std::move(SigR));
  }

  const ArrayDecl &LA = R.array(S->lhs().ArrayId);
  TemplateSig SigL = templateSigOf(LA);
  if (!(SigL == SigR))
    return Mapping::general(std::move(SigR)); // Misaligned: redistribution.

  std::vector<unsigned> DimsL = distDimsOf(LA);
  std::vector<int64_t> Offsets(SigR.rank(), 0);
  int BcastDim = -1;
  int64_t BcastPos = 0;
  for (unsigned K = 0; K != DimsR.size(); ++K) {
    const Subscript &SubL = S->lhs().Subs[DimsL[K]];
    const Subscript &SubR = Ref.Subs[DimsR[K]];
    int64_t Delta;
    if (SubL.isElem() && SubR.isElem()) {
      if (SubR.Lo.constDifference(SubL.Lo, Delta)) {
        Offsets[K] = Delta;
        continue;
      }
      if (SubR.Lo.isConstant() && BcastDim < 0) {
        BcastDim = static_cast<int>(K);
        BcastPos = SubR.Lo.constValue();
        continue;
      }
      return Mapping::general(std::move(SigR));
    }
    if (SubL.isRange() && SubR.isRange()) {
      int64_t DHi;
      if (SubR.Lo.constDifference(SubL.Lo, Delta) &&
          SubR.Hi.constDifference(SubL.Hi, DHi) && Delta == DHi &&
          SubL.Step == SubR.Step) {
        Offsets[K] = Delta;
        continue;
      }
      return Mapping::general(std::move(SigR));
    }
    return Mapping::general(std::move(SigR));
  }

  if (BcastDim >= 0) {
    for (int64_t O : Offsets)
      if (O != 0)
        return Mapping::general(std::move(SigR));
    return Mapping::bcast(std::move(SigR), BcastDim, BcastPos);
  }
  for (int64_t O : Offsets)
    if (O != 0)
      return Mapping::shift(std::move(SigR), std::move(Offsets));
  return Mapping::local();
}

namespace {

class Detector {
public:
  Detector(const AnalysisContext &Ctx, const PlacementOptions &Opts,
           DecisionLog *Decisions)
      : Ctx(Ctx), Opts(Opts), Decisions(Decisions) {}

  std::vector<CommEntry> run() {
    Ctx.R.forEachStmt([&](Stmt *S) {
      if (auto *A = dyn_cast<AssignStmt>(S))
        visitAssign(A);
    });
    if (Decisions)
      for (const CommEntry &E : Entries)
        Decisions->push_back(DecisionEvent::detected(
            E.Id, E.M.Kind, E.ArrayId, static_cast<int>(E.Refs.size()),
            E.DiagIds.empty() ? -1 : E.DiagIds.front()));
    return std::move(Entries);
  }

private:
  void visitAssign(const AssignStmt *S) {
    std::vector<CommEntry> Raw;
    for (const RhsTerm &T : S->rhs()) {
      if (!T.isArrayLike())
        continue;
      bool IsSum = T.K == RhsTerm::Kind::SumReduce;
      Mapping M = classifyRef(Ctx.R, S, T.Ref, IsSum);
      if (M.isLocal())
        continue;
      appendEntries(S, T.Ref, std::move(M), Raw);
    }
    coalesceInto(Raw);
  }

  /// Appends entries for one classified reference, decomposing diagonal
  /// shifts into augmented axis shifts.
  void appendEntries(const AssignStmt *S, const ArrayRef &Ref, Mapping M,
                     std::vector<CommEntry> &Out) {
    const ArrayDecl &A = Ctx.R.array(Ref.ArrayId);
    std::vector<unsigned> Dims = distDimsOf(A);

    unsigned NonZero = 0;
    if (M.Kind == CommKind::Shift)
      for (int64_t O : M.Offsets)
        NonZero += O != 0;

    if (M.Kind != CommKind::Shift || NonZero <= 1 ||
        !Opts.SubsumeDiagonals) {
      CommEntry E;
      E.UseStmt = S;
      E.Refs = {Ref};
      E.ArrayId = Ref.ArrayId;
      E.M = std::move(M);
      E.Augment.assign(A.rank(), {0, 0});
      Out.push_back(std::move(E));
      return;
    }

    // Diagonal NNC: one axis shift per nonzero template dim, each phase
    // carrying the overlap augmentation of its sibling dims. With symmetric
    // augmentation the phases may fire in any order: whichever runs second
    // forwards the corner data the first one deposited in the neighbour's
    // overlap region (Section 2.2).
    std::vector<std::array<int64_t, 2>> FullAug(A.rank(), {0, 0});
    for (unsigned K = 0; K != M.Offsets.size(); ++K) {
      if (M.Offsets[K] == 0)
        continue;
      unsigned ADim = Dims[K];
      if (M.Offsets[K] < 0)
        FullAug[ADim][0] = -M.Offsets[K];
      else
        FullAug[ADim][1] = M.Offsets[K];
    }
    int DiagId = NextDiagId++;
    for (unsigned K = 0; K != M.Offsets.size(); ++K) {
      if (M.Offsets[K] == 0)
        continue;
      CommEntry E;
      E.UseStmt = S;
      E.Refs = {Ref};
      E.ArrayId = Ref.ArrayId;
      std::vector<int64_t> Off(M.Offsets.size(), 0);
      Off[K] = M.Offsets[K];
      E.M = Mapping::shift(M.Sig, std::move(Off));
      // Sibling dims' augmentation only (own dim is the shift itself).
      E.Augment = FullAug;
      E.Augment[Dims[K]] = {0, 0};
      E.DiagIds = {DiagId};
      Out.push_back(std::move(E));
    }
  }

  /// Per-statement message coalescing: merge entries with compatible
  /// patterns on the same array into one entry.
  void coalesceInto(std::vector<CommEntry> &Raw) {
    std::vector<CommEntry> Merged;
    for (CommEntry &E : Raw) {
      bool Done = false;
      for (CommEntry &Into : Merged) {
        if (Into.ArrayId != E.ArrayId || !Into.M.compatibleWith(E.M))
          continue;
        // Reductions stay one entry per sum() so the baselines emit one
        // call per reduction; the global algorithm combines them later.
        if (E.M.Kind == CommKind::Reduce)
          continue;
        // Merge: widest shift offsets, widest augmentation, all refs.
        for (unsigned K = 0; K != Into.M.Offsets.size(); ++K)
          if (std::llabs(E.M.Offsets[K]) > std::llabs(Into.M.Offsets[K]))
            Into.M.Offsets[K] = E.M.Offsets[K];
        for (unsigned D = 0; D != Into.Augment.size(); ++D) {
          Into.Augment[D][0] = std::max(Into.Augment[D][0], E.Augment[D][0]);
          Into.Augment[D][1] = std::max(Into.Augment[D][1], E.Augment[D][1]);
        }
        Into.Refs.insert(Into.Refs.end(), E.Refs.begin(), E.Refs.end());
        Into.DiagIds.insert(Into.DiagIds.end(), E.DiagIds.begin(),
                            E.DiagIds.end());
        Done = true;
        break;
      }
      if (!Done)
        Merged.push_back(std::move(E));
    }
    for (CommEntry &E : Merged) {
      E.Id = static_cast<int>(Entries.size());
      Entries.push_back(std::move(E));
    }
  }

  const AnalysisContext &Ctx;
  const PlacementOptions &Opts;
  DecisionLog *Decisions;
  std::vector<CommEntry> Entries;
  int NextDiagId = 0;
};

} // namespace

std::vector<CommEntry>
gca::detectCommunication(const AnalysisContext &Ctx,
                         const PlacementOptions &Opts,
                         DecisionLog *Decisions) {
  return Detector(Ctx, Opts, Decisions).run();
}

Asd gca::asdOfEntry(const AnalysisContext &Ctx, const CommEntry &E,
                    int Level) {
  const ArrayDecl &A = Ctx.R.array(E.ArrayId);
  RegSection D = Ctx.sectionOfRef(E.Refs[0], Level);
  for (size_t I = 1; I < E.Refs.size(); ++I) {
    RegSection Other = Ctx.sectionOfRef(E.Refs[I], Level);
    RegSection U;
    int64_t UE, SE;
    if (D.unionApprox(Other, U, UE, SE))
      D = std::move(U);
    // A failed union (different variable structure) keeps the first
    // section; the overlap augmentation below still covers the widest shift.
  }
  // Apply overlap augmentation and clamp constant bounds to the array.
  for (unsigned Dim = 0, ED = D.rank(); Dim != ED; ++Dim) {
    SecDim &SD = D.dim(Dim);
    if (E.Augment[Dim][0] != 0)
      SD.Lo = SD.Lo - E.Augment[Dim][0];
    if (E.Augment[Dim][1] != 0)
      SD.Hi = SD.Hi + E.Augment[Dim][1];
    if (SD.Lo.isConstant() && SD.Lo.constValue() < A.Lo[Dim])
      SD.Lo = AffineExpr::constant(A.Lo[Dim]);
    if (SD.Hi.isConstant() && SD.Hi.constValue() > A.Hi[Dim])
      SD.Hi = AffineExpr::constant(A.Hi[Dim]);
  }
  Asd Out;
  Out.ArrayId = E.ArrayId;
  Out.D = std::move(D);
  Out.M = E.M;
  return Out;
}
