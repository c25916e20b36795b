//===- frontend/Lexer.cpp - HPF-lite lexer --------------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>

using namespace gca;

bool Token::isKeyword(const char *KW) const {
  return Kind == TokKind::Ident && Text == KW;
}

std::vector<Token> gca::lexSource(std::string_view Src, DiagEngine &Diags,
                                  int FirstLine) {
  std::vector<Token> Out;
  int Line = FirstLine, Col = 1;
  size_t I = 0, N = Src.size();

  auto peek = [&](size_t Off = 0) -> char {
    return I + Off < N ? Src[I + Off] : '\0';
  };
  auto advance = [&]() {
    if (Src[I] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++I;
  };
  auto push = [&](TokKind K, std::string Text, SourceLoc Loc) {
    Token T;
    T.Kind = K;
    T.Text = std::move(Text);
    T.Loc = Loc;
    Out.push_back(std::move(T));
  };

  while (I < N) {
    char C = Src[I];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    // Comments: "!" or "//" to end of line.
    if (C == '!' || (C == '/' && peek(1) == '/')) {
      while (I < N && Src[I] != '\n')
        advance();
      continue;
    }
    SourceLoc Loc(Line, Col);
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Text;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Src[I])) ||
                       Src[I] == '_')) {
        Text += Src[I];
        advance();
      }
      push(TokKind::Ident, std::move(Text), Loc);
      continue;
    }
    // Numbers (integers; a fractional part is accepted for literals).
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Text;
      while (I < N && (std::isdigit(static_cast<unsigned char>(Src[I])) ||
                       Src[I] == '.')) {
        Text += Src[I];
        advance();
      }
      Token T;
      T.Kind = TokKind::Number;
      T.IntValue = std::strtoll(Text.c_str(), nullptr, 10);
      T.Text = std::move(Text);
      T.Loc = Loc;
      Out.push_back(std::move(T));
      continue;
    }
    switch (C) {
    case '(':
      push(TokKind::LParen, "(", Loc);
      break;
    case ')':
      push(TokKind::RParen, ")", Loc);
      break;
    case ',':
      push(TokKind::Comma, ",", Loc);
      break;
    case ':':
      push(TokKind::Colon, ":", Loc);
      break;
    case '=':
      push(TokKind::Assign, "=", Loc);
      break;
    case '+':
      push(TokKind::Plus, "+", Loc);
      break;
    case '-':
      push(TokKind::Minus, "-", Loc);
      break;
    case '*':
      push(TokKind::Star, "*", Loc);
      break;
    case '/':
      push(TokKind::Slash, "/", Loc);
      break;
    default:
      Diags.error(Loc, "unexpected character '%c'", C);
      break;
    }
    advance();
  }

  Token Eof;
  Eof.Kind = TokKind::Eof;
  Eof.Loc = SourceLoc(Line, Col);
  Out.push_back(std::move(Eof));
  return Out;
}
