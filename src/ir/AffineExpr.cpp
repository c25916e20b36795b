//===- ir/AffineExpr.cpp - Affine index expressions -----------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "ir/AffineExpr.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace gca;

AffineExpr AffineExpr::constant(int64_t C) {
  AffineExpr E;
  E.Const = C;
  return E;
}

AffineExpr AffineExpr::var(int VarId, int64_t Coeff) {
  AffineExpr E;
  if (Coeff != 0)
    E.Terms.emplace_back(VarId, Coeff);
  return E;
}

int64_t AffineExpr::constValue() const {
  assert(isConstant() && "constValue() on non-constant affine expression");
  return Const;
}

int64_t AffineExpr::coeff(int VarId) const {
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), VarId,
      [](const std::pair<int, int64_t> &T, int Id) { return T.first < Id; });
  if (It != Terms.end() && It->first == VarId)
    return It->second;
  return 0;
}

std::vector<int> AffineExpr::vars() const {
  std::vector<int> Out;
  Out.reserve(Terms.size());
  for (const auto &T : Terms)
    Out.push_back(T.first);
  return Out;
}

int64_t AffineExpr::eval(const std::vector<int64_t> &VarValues) const {
  int64_t V = Const;
  for (const auto &T : Terms) {
    int64_t Val =
        T.first < static_cast<int>(VarValues.size()) ? VarValues[T.first] : 0;
    V += T.second * Val;
  }
  return V;
}

void AffineExpr::addTerm(int VarId, int64_t Coeff) {
  if (Coeff == 0)
    return;
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), VarId,
      [](const std::pair<int, int64_t> &T, int Id) { return T.first < Id; });
  if (It != Terms.end() && It->first == VarId) {
    It->second += Coeff;
    if (It->second == 0)
      Terms.erase(It);
    return;
  }
  Terms.insert(It, {VarId, Coeff});
}

AffineExpr AffineExpr::substitute(int VarId, const AffineExpr &Repl) const {
  int64_t C = coeff(VarId);
  if (C == 0)
    return *this;
  // Merges the other terms with C * Repl's, both sorted by variable id,
  // summing equal ids and dropping zeros: the terms of
  // (*this - C * var) + Repl * C, built without temporaries, so a result
  // whose terms all cancel allocates nothing.
  AffineExpr Out;
  Out.Const = Const + Repl.Const * C;
  auto A = Terms.begin(), AEnd = Terms.end();
  auto B = Repl.Terms.begin(), BEnd = Repl.Terms.end();
  while (A != AEnd || B != BEnd) {
    if (A != AEnd && A->first == VarId) {
      ++A;
    } else if (B == BEnd || (A != AEnd && A->first < B->first)) {
      Out.Terms.push_back(*A++);
    } else {
      int Id = B->first;
      int64_t Coeff = B->second * C;
      ++B;
      if (A != AEnd && A->first == Id)
        Coeff += (A++)->second;
      if (Coeff != 0)
        Out.Terms.emplace_back(Id, Coeff);
    }
  }
  return Out;
}

AffineExpr AffineExpr::operator+(const AffineExpr &RHS) const {
  AffineExpr Out = *this;
  Out.Const += RHS.Const;
  for (const auto &T : RHS.Terms)
    Out.addTerm(T.first, T.second);
  return Out;
}

AffineExpr AffineExpr::operator-(const AffineExpr &RHS) const {
  return *this + RHS * -1;
}

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  AffineExpr Out;
  if (Scale == 0)
    return Out;
  Out.Const = Const * Scale;
  Out.Terms = Terms;
  for (auto &T : Out.Terms)
    T.second *= Scale;
  return Out;
}

AffineExpr AffineExpr::operator+(int64_t C) const {
  AffineExpr Out = *this;
  Out.Const += C;
  return Out;
}

AffineExpr AffineExpr::operator-(int64_t C) const { return *this + (-C); }

bool AffineExpr::constDifference(const AffineExpr &RHS, int64_t &Delta) const {
  if (Terms != RHS.Terms)
    return false;
  Delta = Const - RHS.Const;
  return true;
}

std::string AffineExpr::str(const std::vector<std::string> *VarNames) const {
  std::string Out;
  bool First = true;
  for (const auto &T : Terms) {
    std::string Name = VarNames && T.first < static_cast<int>(VarNames->size())
                           ? (*VarNames)[T.first]
                           : strFormat("v%d", T.first);
    int64_t C = T.second;
    if (First) {
      if (C == 1)
        Out += Name;
      else if (C == -1)
        Out += "-" + Name;
      else
        Out += strFormat("%lld*%s", static_cast<long long>(C), Name.c_str());
      First = false;
      continue;
    }
    if (C == 1)
      Out += "+" + Name;
    else if (C == -1)
      Out += "-" + Name;
    else if (C > 0)
      Out += strFormat("+%lld*%s", static_cast<long long>(C), Name.c_str());
    else
      Out += strFormat("-%lld*%s", static_cast<long long>(-C), Name.c_str());
  }
  if (First)
    return strFormat("%lld", static_cast<long long>(Const));
  if (Const > 0)
    Out += strFormat("+%lld", static_cast<long long>(Const));
  else if (Const < 0)
    Out += strFormat("%lld", static_cast<long long>(Const));
  return Out;
}
