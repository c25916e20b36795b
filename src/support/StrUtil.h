//===- support/StrUtil.h - String helpers -----------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus a handful of small string
/// utilities shared across the library (join, trimming, numeric parsing and
/// rendering).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_STRUTIL_H
#define GCA_SUPPORT_STRUTIL_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gca {

/// printf-style formatting that returns an owned std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style counterpart of strFormat.
std::string strFormatV(const char *Fmt, va_list Args);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Strips leading and trailing ASCII whitespace.
std::string trim(const std::string &S);

/// Escapes \p S for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(const std::string &S);

/// jsonEscape appended to \p Out: runs of plain bytes are copied whole.
void jsonEscapeInto(std::string &Out, std::string_view S);

/// Parses a count: a plain decimal number (digits only, no sign, space or
/// suffix) in [\p Min, \p Max]. \returns false, leaving \p Out alone, for
/// anything else. How the command-line tools read numeric flags.
bool parseCount(std::string_view Text, uint64_t Min, uint64_t Max,
                uint64_t &Out);

/// parseCount into a narrower integer; \p Max must fit in \p T.
template <typename T>
bool parseCount(std::string_view Text, uint64_t Min, uint64_t Max, T &Out) {
  uint64_t V = 0;
  if (!parseCount(Text, Min, Max, V))
    return false;
  Out = static_cast<T>(V);
  return true;
}

/// Parses any int64_t written as plain decimal digits with an optional
/// leading '-' (no '+', space or suffix). \returns false, leaving \p Out
/// alone, for anything else.
bool parseInt64(std::string_view Text, int64_t &Out);

/// Renders a byte count in a human-friendly form ("512 B", "20.0 KB", ...).
std::string formatBytes(double Bytes);

/// Renders a seconds count in a human-friendly form ("12.3 us", "4.5 ms").
std::string formatSeconds(double Seconds);

} // namespace gca

#endif // GCA_SUPPORT_STRUTIL_H
