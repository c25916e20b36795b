//===- support/StrUtil.cpp - String helpers -------------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/StrUtil.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cstdio>

using namespace gca;

std::string gca::strFormatV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  assert(Needed >= 0 && "invalid format string");
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

std::string gca::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Out = strFormatV(Fmt, Args);
  va_end(Args);
  return Out;
}

std::string gca::join(const std::vector<std::string> &Parts,
                      const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string gca::trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

void gca::jsonEscapeInto(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  size_t Run = 0; // Start of the pending run of plain bytes.
  for (size_t I = 0, E = S.size(); I != E; ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      const char U[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
      Out.append(U, sizeof(U));
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

std::string gca::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  jsonEscapeInto(Out, S);
  return Out;
}

std::string gca::formatBytes(double Bytes) {
  if (Bytes < 1024.0)
    return strFormat("%.0f B", Bytes);
  if (Bytes < 1024.0 * 1024.0)
    return strFormat("%.1f KB", Bytes / 1024.0);
  if (Bytes < 1024.0 * 1024.0 * 1024.0)
    return strFormat("%.1f MB", Bytes / (1024.0 * 1024.0));
  return strFormat("%.2f GB", Bytes / (1024.0 * 1024.0 * 1024.0));
}

std::string gca::formatSeconds(double Seconds) {
  if (Seconds < 1e-3)
    return strFormat("%.1f us", Seconds * 1e6);
  if (Seconds < 1.0)
    return strFormat("%.2f ms", Seconds * 1e3);
  return strFormat("%.3f s", Seconds);
}

/// std::from_chars over all of \p Text: no prefix or suffix may remain.
template <typename T> static bool parseWhole(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

bool gca::parseCount(std::string_view Text, uint64_t Min, uint64_t Max,
                     uint64_t &Out) {
  uint64_t V = 0;
  if (!parseWhole(Text, V) || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

bool gca::parseInt64(std::string_view Text, int64_t &Out) {
  int64_t V = 0;
  if (!parseWhole(Text, V))
    return false;
  Out = V;
  return true;
}
