//===- support/StrUtil.h - String helpers -----------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus a handful of small string
/// utilities shared across the library (join, trimming, numeric rendering).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_STRUTIL_H
#define GCA_SUPPORT_STRUTIL_H

#include <cstdarg>
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

/// Renders a byte count in a human-friendly form ("512 B", "20.0 KB", ...).
std::string formatBytes(double Bytes);

/// Renders a seconds count in a human-friendly form ("12.3 us", "4.5 ms").
std::string formatSeconds(double Seconds);

} // namespace gca

#endif // GCA_SUPPORT_STRUTIL_H
