//===- frontend/Lexer.h - HPF-lite lexer ------------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for HPF-lite source text. Comments run from `!` or `//` to end
/// of line. Newlines are significant only in that statements end at line
/// breaks, which the parser handles by checking token line numbers.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_FRONTEND_LEXER_H
#define GCA_FRONTEND_LEXER_H

#include "support/Diag.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gca {

enum class TokKind : uint8_t {
  Eof,
  Ident,
  Number,
  LParen,
  RParen,
  Comma,
  Colon,
  Assign, // =
  Plus,
  Minus,
  Star,
  Slash,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  int64_t IntValue = 0;
  SourceLoc Loc;

  bool is(TokKind K) const { return Kind == K; }
  /// True for an Ident token exactly matching \p KW.
  bool isKeyword(const char *KW) const;
};

/// Tokenizes \p Src; lexical errors are reported to \p Diags and skipped.
/// \p FirstLine is the line number of Src's first byte, so a block cut out
/// of a larger file at a line start lexes with the file's own locations.
std::vector<Token> lexSource(std::string_view Src, DiagEngine &Diags,
                             int FirstLine = 1);

} // namespace gca

#endif // GCA_FRONTEND_LEXER_H
