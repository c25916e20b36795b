//===- frontend/Parser.cpp - HPF-lite parser ------------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"

#include <cassert>
#include <optional>
#include <set>

using namespace gca;

namespace {

/// Loop-variable scope and insertion state for one routine being parsed.
struct Scope {
  std::string Name;
  int VarId;
};

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Toks, DiagEngine &Diags, ParamMap Overrides)
      : Toks(std::move(Toks)), Diags(Diags), Overrides(std::move(Overrides)) {
    Params = this->Overrides;
  }

  std::unique_ptr<Program> parseFile();

  /// The program header: `program` name and file-level params, with a
  /// warning for each override that matches no param declaration.
  std::unique_ptr<Program> parseHeader();
  /// One `routine` block, from its `routine` keyword.
  std::unique_ptr<Routine> parseRoutine();
  /// Reports an error unless every token has been consumed.
  void expectEof() {
    if (!cur().is(TokKind::Eof))
      Diags.error(cur().Loc, "trailing tokens after program end");
  }
  /// Continues with a separately lexed token stream; params declared so
  /// far stay bound.
  void resetTokens(std::vector<Token> NewToks) {
    Toks = std::move(NewToks);
    Pos = 0;
  }

private:
  // Token plumbing ---------------------------------------------------------

  const Token &cur() const { return Toks[Pos]; }
  void advance() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool accept(TokKind K) {
    if (!cur().is(K))
      return false;
    advance();
    return true;
  }
  bool acceptKeyword(const char *KW) {
    if (!cur().isKeyword(KW))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    Diags.error(cur().Loc, "expected %s, found '%s'", What,
                cur().Text.empty() ? "<eof>" : cur().Text.c_str());
    return false;
  }
  bool expectKeyword(const char *KW) {
    if (acceptKeyword(KW))
      return true;
    Diags.error(cur().Loc, "expected '%s', found '%s'", KW,
                cur().Text.empty() ? "<eof>" : cur().Text.c_str());
    return false;
  }
  void skipToNextLine() {
    int Line = cur().Loc.Line;
    while (!cur().is(TokKind::Eof) && cur().Loc.Line == Line)
      advance();
  }

  // Expressions ------------------------------------------------------------

  /// Parses an affine expression; loop variables resolve through Scopes,
  /// params fold to constants. On failure reports and returns 0.
  AffineExpr parseExpr();
  AffineExpr parseMulTerm();
  AffineExpr parseAtom();

  /// Parses a constant expression; non-constant is an error.
  int64_t parseConstExpr();

  int lookupLoopVar(const std::string &Name) const {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It)
      if (It->Name == Name)
        return It->VarId;
    return -1;
  }

  // Declarations & statements ----------------------------------------------

  void parseParam();
  void parseRoutineBody(Routine &R); // decl* begin stmt* end
  void parseDecl();
  void parseStmtSeq(std::vector<Stmt *> &List, bool AllowElse, bool &AtElse);
  void parseStmtInto(std::vector<Stmt *> &List);
  void parseDo(std::vector<Stmt *> &List);
  void parseIf(std::vector<Stmt *> &List);
  void parseAssign(std::vector<Stmt *> &List);

  /// Parses `name(sub, ...)` after the name has been consumed.
  ArrayRef parseRefSubs(int ArrayId, SourceLoc Loc);

  std::vector<Token> Toks;
  size_t Pos = 0;
  DiagEngine &Diags;
  ParamMap Overrides;
  ParamMap Params;
  /// Names introduced by `param` declarations (for override checking).
  std::set<std::string> DeclaredParams;
  Routine *R = nullptr;
  std::vector<Scope> Scopes;
};

} // namespace

AffineExpr ParserImpl::parseAtom() {
  SourceLoc Loc = cur().Loc;
  if (accept(TokKind::Minus))
    return parseAtom() * -1;
  if (cur().is(TokKind::Number)) {
    int64_t V = cur().IntValue;
    advance();
    return AffineExpr::constant(V);
  }
  if (accept(TokKind::LParen)) {
    AffineExpr E = parseExpr();
    expect(TokKind::RParen, "')'");
    return E;
  }
  if (cur().is(TokKind::Ident)) {
    std::string Name = cur().Text;
    advance();
    int Var = lookupLoopVar(Name);
    if (Var >= 0)
      return AffineExpr::var(Var);
    auto It = Params.find(Name);
    if (It != Params.end())
      return AffineExpr::constant(It->second);
    Diags.error(Loc, "unknown name '%s' in index expression", Name.c_str());
    return AffineExpr::constant(0);
  }
  Diags.error(Loc, "expected index expression, found '%s'",
              cur().Text.empty() ? "<eof>" : cur().Text.c_str());
  advance();
  return AffineExpr::constant(0);
}

AffineExpr ParserImpl::parseMulTerm() {
  AffineExpr E = parseAtom();
  while (cur().is(TokKind::Star)) {
    SourceLoc Loc = cur().Loc;
    advance();
    AffineExpr F = parseAtom();
    if (E.isConstant()) {
      E = F * E.constValue();
    } else if (F.isConstant()) {
      E = E * F.constValue();
    } else {
      Diags.error(Loc, "nonlinear index expression is not affine");
      E = AffineExpr::constant(0);
    }
  }
  return E;
}

AffineExpr ParserImpl::parseExpr() {
  AffineExpr E = parseMulTerm();
  while (true) {
    if (accept(TokKind::Plus)) {
      E = E + parseMulTerm();
    } else if (cur().is(TokKind::Minus)) {
      advance();
      E = E - parseMulTerm();
    } else {
      return E;
    }
  }
}

int64_t ParserImpl::parseConstExpr() {
  SourceLoc Loc = cur().Loc;
  AffineExpr E = parseExpr();
  if (!E.isConstant()) {
    Diags.error(Loc, "expression must be constant here");
    return 0;
  }
  return E.constValue();
}

void ParserImpl::parseParam() {
  // "param" has been consumed.
  if (!cur().is(TokKind::Ident)) {
    Diags.error(cur().Loc, "expected parameter name");
    skipToNextLine();
    return;
  }
  std::string Name = cur().Text;
  advance();
  expect(TokKind::Assign, "'='");
  int64_t Value = parseConstExpr();
  DeclaredParams.insert(Name);
  // Command-line overrides win over source-level values.
  if (!Overrides.count(Name))
    Params[Name] = Value;
}

void ParserImpl::parseDecl() {
  // "real" has been consumed.
  if (!cur().is(TokKind::Ident)) {
    Diags.error(cur().Loc, "expected declaration name");
    skipToNextLine();
    return;
  }
  std::string Name = cur().Text;
  SourceLoc Loc = cur().Loc;
  advance();

  if (!cur().is(TokKind::LParen)) {
    // Scalar declaration.
    if (R->findScalar(Name) >= 0 || R->findArray(Name) >= 0)
      Diags.error(Loc, "redeclaration of '%s'", Name.c_str());
    else
      R->addScalar(Name);
    return;
  }

  advance(); // '('
  std::vector<int64_t> Lo, Hi;
  do {
    int64_t A = parseConstExpr();
    if (accept(TokKind::Colon)) {
      int64_t B = parseConstExpr();
      Lo.push_back(A);
      Hi.push_back(B);
    } else {
      Lo.push_back(1);
      Hi.push_back(A);
    }
  } while (accept(TokKind::Comma));
  expect(TokKind::RParen, "')'");

  std::vector<DistKind> Dist(Lo.size(), DistKind::Star);
  if (acceptKeyword("distribute")) {
    expect(TokKind::LParen, "'('");
    for (unsigned D = 0;; ++D) {
      DistKind K = DistKind::Star;
      if (accept(TokKind::Star)) {
        K = DistKind::Star;
      } else if (cur().is(TokKind::Ident)) {
        std::string W = cur().Text;
        advance();
        if (W == "block" || W == "BLOCK") {
          K = DistKind::Block;
        } else if (W == "cyclic" || W == "CYCLIC") {
          K = DistKind::Cyclic;
        } else {
          Diags.error(cur().Loc, "unknown distribution '%s'", W.c_str());
        }
      } else {
        Diags.error(cur().Loc, "expected distribution keyword");
        break;
      }
      if (D < Dist.size())
        Dist[D] = K;
      else
        Diags.error(cur().Loc, "more distribution entries than dimensions");
      if (!accept(TokKind::Comma))
        break;
    }
    expect(TokKind::RParen, "')'");
  }

  if (R->findScalar(Name) >= 0 || R->findArray(Name) >= 0)
    Diags.error(Loc, "redeclaration of '%s'", Name.c_str());
  else
    R->addArrayBounds(Name, std::move(Lo), std::move(Hi), std::move(Dist));
}

ArrayRef ParserImpl::parseRefSubs(int ArrayId, SourceLoc Loc) {
  const ArrayDecl &A = R->array(ArrayId);
  ArrayRef Ref;
  Ref.ArrayId = ArrayId;
  Ref.Loc = Loc;
  if (!accept(TokKind::LParen)) {
    // Whole-array reference.
    for (unsigned D = 0, E = A.rank(); D != E; ++D)
      Ref.Subs.push_back(Subscript::range(AffineExpr::constant(A.Lo[D]),
                                          AffineExpr::constant(A.Hi[D])));
    return Ref;
  }
  unsigned Dim = 0;
  do {
    if (cur().is(TokKind::Colon)) {
      // Bare ':' — full dimension.
      advance();
      if (Dim < A.rank())
        Ref.Subs.push_back(Subscript::range(AffineExpr::constant(A.Lo[Dim]),
                                            AffineExpr::constant(A.Hi[Dim])));
      ++Dim;
      continue;
    }
    AffineExpr First = parseExpr();
    if (accept(TokKind::Colon)) {
      AffineExpr Hi = parseExpr();
      int64_t Step = 1;
      if (accept(TokKind::Colon))
        Step = parseConstExpr();
      Ref.Subs.push_back(Subscript::range(std::move(First), std::move(Hi),
                                          Step));
    } else {
      Ref.Subs.push_back(Subscript::elem(std::move(First)));
    }
    ++Dim;
  } while (accept(TokKind::Comma));
  expect(TokKind::RParen, "')'");
  if (Dim != A.rank())
    Diags.error(Loc, "array '%s' has rank %u but %u subscripts given",
                A.Name.c_str(), A.rank(), Dim);
  return Ref;
}

void ParserImpl::parseAssign(std::vector<Stmt *> &List) {
  SourceLoc Loc = cur().Loc;
  std::string Name = cur().Text;
  advance();

  int ArrayId = R->findArray(Name);
  int ScalarId = R->findScalar(Name);
  ArrayRef Lhs;
  if (ArrayId >= 0) {
    Lhs = parseRefSubs(ArrayId, Loc);
  } else if (ScalarId < 0) {
    Diags.error(Loc, "assignment to undeclared name '%s'", Name.c_str());
    skipToNextLine();
    return;
  }

  if (!expect(TokKind::Assign, "'='")) {
    skipToNextLine();
    return;
  }

  std::vector<RhsTerm> Rhs;
  int NumOps = 0;
  while (true) {
    SourceLoc TLoc = cur().Loc;
    if (cur().is(TokKind::Number)) {
      double V = std::strtod(cur().Text.c_str(), nullptr);
      advance();
      Rhs.push_back(RhsTerm::literal(V));
    } else if (cur().isKeyword("sum")) {
      advance();
      expect(TokKind::LParen, "'('");
      if (!cur().is(TokKind::Ident)) {
        Diags.error(cur().Loc, "expected array reference in sum()");
        skipToNextLine();
        return;
      }
      std::string AName = cur().Text;
      SourceLoc ALoc = cur().Loc;
      advance();
      int Aid = R->findArray(AName);
      if (Aid < 0) {
        Diags.error(ALoc, "sum() of undeclared array '%s'", AName.c_str());
        skipToNextLine();
        return;
      }
      Rhs.push_back(RhsTerm::sum(parseRefSubs(Aid, ALoc)));
      expect(TokKind::RParen, "')'");
    } else if (cur().is(TokKind::Ident)) {
      std::string TName = cur().Text;
      advance();
      int Aid = R->findArray(TName);
      int Sid = R->findScalar(TName);
      int Lid = lookupLoopVar(TName);
      if (Aid >= 0) {
        Rhs.push_back(RhsTerm::array(parseRefSubs(Aid, TLoc)));
      } else if (Sid >= 0) {
        Rhs.push_back(RhsTerm::scalar(Sid));
      } else if (Lid >= 0 || Params.count(TName)) {
        // Loop variables and params as values: analysis only needs to know
        // no array data is read, so treat them as literals.
        Rhs.push_back(RhsTerm::literal(0));
      } else {
        Diags.error(TLoc, "unknown name '%s' on right-hand side",
                    TName.c_str());
        skipToNextLine();
        return;
      }
    } else {
      Diags.error(TLoc, "expected right-hand-side term, found '%s'",
                  cur().Text.empty() ? "<eof>" : cur().Text.c_str());
      skipToNextLine();
      return;
    }
    if (accept(TokKind::Plus) || accept(TokKind::Minus) ||
        accept(TokKind::Star) || accept(TokKind::Slash)) {
      ++NumOps;
      continue;
    }
    break;
  }

  AssignStmt *S;
  if (ArrayId >= 0)
    S = R->newAssign(std::move(Lhs), std::move(Rhs), NumOps > 0 ? NumOps : 1);
  else
    S = R->newScalarAssign(ScalarId, std::move(Rhs),
                           NumOps > 0 ? NumOps : 1);
  S->setLoc(Loc);
  List.push_back(S);
}

void ParserImpl::parseDo(std::vector<Stmt *> &List) {
  // "do" has been consumed.
  SourceLoc Loc = cur().Loc;
  if (!cur().is(TokKind::Ident)) {
    Diags.error(Loc, "expected loop variable after 'do'");
    skipToNextLine();
    return;
  }
  std::string Var = cur().Text;
  advance();
  expect(TokKind::Assign, "'='");
  AffineExpr Lo = parseExpr();
  expect(TokKind::Comma, "','");
  AffineExpr Hi = parseExpr();
  int64_t Step = 1;
  if (accept(TokKind::Comma))
    Step = parseConstExpr();
  if (Step == 0) {
    Diags.error(Loc, "loop step must be nonzero");
    Step = 1;
  }

  int VarId = R->addLoopVar(Var);
  LoopStmt *L = R->newLoop(VarId, std::move(Lo), std::move(Hi), Step);
  L->setLoc(Loc);
  List.push_back(L);

  Scopes.push_back({Var, VarId});
  bool AtElse = false;
  parseStmtSeq(L->body(), /*AllowElse=*/false, AtElse);
  Scopes.pop_back();
  // parseStmtSeq stops at "end"; consume "end do".
  expectKeyword("end");
  expectKeyword("do");
}

void ParserImpl::parseIf(std::vector<Stmt *> &List) {
  // "if" has been consumed.
  SourceLoc Loc = cur().Loc;
  expect(TokKind::LParen, "'('");
  // Capture uninterpreted condition text until the matching ')'.
  std::string Cond;
  int Depth = 1;
  while (!cur().is(TokKind::Eof)) {
    if (cur().is(TokKind::LParen))
      ++Depth;
    if (cur().is(TokKind::RParen) && --Depth == 0) {
      advance();
      break;
    }
    if (!Cond.empty())
      Cond += " ";
    Cond += cur().Text;
    advance();
  }
  expectKeyword("then");

  IfStmt *I = R->newIf(Cond);
  I->setLoc(Loc);
  List.push_back(I);

  bool AtElse = false;
  parseStmtSeq(I->thenBody(), /*AllowElse=*/true, AtElse);
  if (AtElse) {
    advance(); // consume "else"
    bool Dummy = false;
    parseStmtSeq(I->elseBody(), /*AllowElse=*/false, Dummy);
  }
  expectKeyword("end");
  expectKeyword("if");
}

void ParserImpl::parseStmtInto(std::vector<Stmt *> &List) {
  if (acceptKeyword("do")) {
    parseDo(List);
    return;
  }
  if (acceptKeyword("if")) {
    parseIf(List);
    return;
  }
  if (cur().is(TokKind::Ident)) {
    parseAssign(List);
    return;
  }
  Diags.error(cur().Loc, "expected statement, found '%s'",
              cur().Text.empty() ? "<eof>" : cur().Text.c_str());
  skipToNextLine();
}

void ParserImpl::parseStmtSeq(std::vector<Stmt *> &List, bool AllowElse,
                              bool &AtElse) {
  AtElse = false;
  while (!cur().is(TokKind::Eof)) {
    if (cur().isKeyword("end"))
      return;
    if (AllowElse && cur().isKeyword("else")) {
      AtElse = true;
      return;
    }
    parseStmtInto(List);
  }
}

void ParserImpl::parseRoutineBody(Routine &Routine) {
  R = &Routine;
  Scopes.clear();
  // A param declared here is scoped to this routine: the file-level
  // bindings are restored at its end.
  std::optional<ParamMap> FileParams;
  while (!cur().is(TokKind::Eof)) {
    if (acceptKeyword("real")) {
      parseDecl();
      continue;
    }
    if (acceptKeyword("param")) {
      if (!FileParams)
        FileParams = Params;
      parseParam();
      continue;
    }
    break;
  }
  expectKeyword("begin");
  bool AtElse = false;
  parseStmtSeq(Routine.body(), /*AllowElse=*/false, AtElse);
  expectKeyword("end");
  if (FileParams)
    Params = std::move(*FileParams);
  R = nullptr;
}

std::unique_ptr<Routine> ParserImpl::parseRoutine() {
  expectKeyword("routine");
  std::string Name = "routine";
  if (cur().is(TokKind::Ident)) {
    Name = cur().Text;
    advance();
  } else {
    Diags.error(cur().Loc, "expected routine name");
  }
  auto Rt = std::make_unique<Routine>(Name);
  parseRoutineBody(*Rt);
  return Rt;
}

std::unique_ptr<Program> ParserImpl::parseHeader() {
  auto P = std::make_unique<Program>();
  P->Name = "program";
  if (acceptKeyword("program")) {
    if (cur().is(TokKind::Ident)) {
      P->Name = cur().Text;
      advance();
    } else {
      Diags.error(cur().Loc, "expected program name");
    }
  }
  while (acceptKeyword("param"))
    parseParam();
  // Overrides that matched no `param` declaration are almost always typos
  // in a -p flag or a benchmark sweep; the binding still takes effect (it
  // introduces the name), so this is a warning, not an error.
  for (const auto &[Name, Value] : Overrides)
    if (!DeclaredParams.count(Name))
      Diags.warning(SourceLoc(),
                    "parameter override '%s=%lld' does not match any param "
                    "declaration",
                    Name.c_str(), static_cast<long long>(Value));
  return P;
}

std::unique_ptr<Program> ParserImpl::parseFile() {
  std::unique_ptr<Program> P = parseHeader();
  if (cur().isKeyword("routine")) {
    while (cur().isKeyword("routine")) {
      P->Routines.push_back(parseRoutine());
      if (Diags.hasErrors())
        break;
    }
  } else {
    // Single implicit routine named after the program.
    auto Rt = std::make_unique<Routine>(P->Name);
    parseRoutineBody(*Rt);
    P->Routines.push_back(std::move(Rt));
  }

  if (!Diags.hasErrors())
    expectEof();
  return P;
}

std::unique_ptr<Program> gca::parseProgram(const std::string &Src,
                                           DiagEngine &Diags,
                                           const ParamMap &Overrides) {
  std::vector<Token> Toks = lexSource(Src, Diags);
  if (Diags.hasErrors())
    return nullptr;
  ParserImpl P(std::move(Toks), Diags, Overrides);
  return P.parseFile();
}

std::unique_ptr<Program>
gca::parseRoutineBlocks(std::string_view Prelude,
                        const std::vector<SourceBlock> &Routines,
                        DiagEngine &Diags, const ParamMap &Overrides) {
  std::vector<Token> HeaderToks = lexSource(Prelude, Diags);
  std::vector<std::vector<Token>> RoutineToks;
  RoutineToks.reserve(Routines.size());
  for (const SourceBlock &B : Routines)
    RoutineToks.push_back(lexSource(B.Text, Diags, B.StartLine));
  if (Diags.hasErrors())
    return nullptr;
  ParserImpl P(std::move(HeaderToks), Diags, Overrides);
  std::unique_ptr<Program> Prog = P.parseHeader();
  P.expectEof();
  for (std::vector<Token> &Toks : RoutineToks) {
    if (Diags.hasErrors())
      break;
    P.resetTokens(std::move(Toks));
    Prog->Routines.push_back(P.parseRoutine());
    P.expectEof();
  }
  return Prog;
}
