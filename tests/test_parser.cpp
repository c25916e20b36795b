//===- tests/test_parser.cpp - HPF-lite frontend tests --------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace gca;

static std::unique_ptr<Program> parseOk(const std::string &Src,
                                        const ParamMap &Params = {}) {
  DiagEngine D;
  auto P = parseProgram(Src, D, Params);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  EXPECT_NE(P, nullptr);
  return P;
}

static std::string parseErr(const std::string &Src) {
  DiagEngine D;
  parseProgram(Src, D);
  EXPECT_TRUE(D.hasErrors());
  return D.str();
}

TEST(Lexer, TokensAndComments) {
  DiagEngine D;
  auto Toks = lexSource("a = b(1:n) ! comment\n+ 2 // more\n", D);
  EXPECT_FALSE(D.hasErrors());
  // a = b ( 1 : n ) + 2 EOF
  ASSERT_EQ(Toks.size(), 11u);
  EXPECT_TRUE(Toks[0].isKeyword("a"));
  EXPECT_TRUE(Toks[1].is(TokKind::Assign));
  EXPECT_TRUE(Toks[3].is(TokKind::LParen));
  EXPECT_TRUE(Toks[4].is(TokKind::Number));
  EXPECT_EQ(Toks[4].IntValue, 1);
  EXPECT_TRUE(Toks[5].is(TokKind::Colon));
  EXPECT_TRUE(Toks[8].is(TokKind::Plus));
  EXPECT_TRUE(Toks.back().is(TokKind::Eof));
}

TEST(Lexer, TracksLines) {
  DiagEngine D;
  auto Toks = lexSource("a\nbb\n  c", D);
  EXPECT_EQ(Toks[0].Loc.Line, 1);
  EXPECT_EQ(Toks[1].Loc.Line, 2);
  EXPECT_EQ(Toks[2].Loc.Line, 3);
  EXPECT_EQ(Toks[2].Loc.Col, 3);
}

TEST(Lexer, RejectsGarbage) {
  DiagEngine D;
  lexSource("a = @", D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(Parser, MinimalProgram) {
  auto P = parseOk(R"(
program tiny
param n = 8
real a(n) distribute (block)
begin
  a = 1
end
)");
  ASSERT_EQ(P->Routines.size(), 1u);
  const Routine &R = *P->Routines[0];
  EXPECT_EQ(R.name(), "tiny");
  EXPECT_EQ(R.array(0).extent(0), 8);
  ASSERT_EQ(R.body().size(), 1u);
}

TEST(Parser, ParamOverrideWins) {
  auto P = parseOk(R"(
program tiny
param n = 8
real a(n) distribute (block)
begin
  a = 1
end
)",
                   {{"n", 32}});
  EXPECT_EQ(P->Routines[0]->array(0).extent(0), 32);
}

TEST(Parser, ExplicitBoundsAndDistributions) {
  auto P = parseOk(R"(
program b
param n = 4
real g(5,0:n+1,0:n+1) distribute (*,block,cyclic)
begin
  g(1,1,1) = 0
end
)");
  const ArrayDecl &G = P->Routines[0]->array(0);
  EXPECT_EQ(G.Lo[1], 0);
  EXPECT_EQ(G.Hi[1], 5);
  EXPECT_EQ(G.Dist[0], DistKind::Star);
  EXPECT_EQ(G.Dist[1], DistKind::Block);
  EXPECT_EQ(G.Dist[2], DistKind::Cyclic);
}

TEST(Parser, SectionsAndFullDims) {
  auto P = parseOk(R"(
program s
param n = 10
real a(n,n) distribute (block,block)
real b(n,n) distribute (block,block)
begin
  a(2:n,:) = b(1:n-1,:) + b(2:n,:)
end
)");
  const Routine &R = *P->Routines[0];
  const auto *S = cast<AssignStmt>(R.body()[0]);
  EXPECT_TRUE(S->lhs().Subs[0].isRange());
  EXPECT_EQ(S->lhs().Subs[0].Lo.constValue(), 2);
  EXPECT_EQ(S->lhs().Subs[1].Lo.constValue(), 1);  // ':' resolved to bounds.
  EXPECT_EQ(S->lhs().Subs[1].Hi.constValue(), 10);
  EXPECT_EQ(S->rhs().size(), 2u);
}

TEST(Parser, StridedSection) {
  auto P = parseOk(R"(
program s
param n = 16
real b(n,n) distribute (block,*)
begin
  b(:,1:n:2) = 1
end
)");
  const auto *S = cast<AssignStmt>(P->Routines[0]->body()[0]);
  EXPECT_EQ(S->lhs().Subs[1].Step, 2);
}

TEST(Parser, LoopsAndAffineSubscripts) {
  auto P = parseOk(R"(
program l
param n = 12
real a(n,n) distribute (block,block)
begin
  do i = 2, n-1
    do j = 1, n, 2
      a(i,j) = a(i-1,j) + a(2*i+1,j)
    end do
  end do
end
)");
  const Routine &R = *P->Routines[0];
  const auto *Li = cast<LoopStmt>(R.body()[0]);
  EXPECT_EQ(Li->hi().constValue(), 11);
  const auto *Lj = cast<LoopStmt>(Li->body()[0]);
  EXPECT_EQ(Lj->step(), 2);
  const auto *S = cast<AssignStmt>(Lj->body()[0]);
  EXPECT_EQ(S->rhs()[1].Ref.Subs[0].Lo.coeff(Li->var()), 2);
  EXPECT_EQ(S->rhs()[1].Ref.Subs[0].Lo.constPart(), 1);
}

TEST(Parser, IfElseWithCondText) {
  auto P = parseOk(R"(
program c
param n = 4
real a(n) distribute (block)
begin
  if (cond) then
    a = 1
  else
    a = 2
  end if
end
)");
  const auto *I = cast<IfStmt>(P->Routines[0]->body()[0]);
  EXPECT_EQ(I->cond(), "cond");
  EXPECT_EQ(I->thenBody().size(), 1u);
  EXPECT_EQ(I->elseBody().size(), 1u);
}

TEST(Parser, SumReduction) {
  auto P = parseOk(R"(
program r
param n = 6
real g(n,n) distribute (block,block)
real s
begin
  s = sum(g(1,1:n)) + sum(g(2,1:n))
end
)");
  const auto *S = cast<AssignStmt>(P->Routines[0]->body()[0]);
  EXPECT_TRUE(S->lhsIsScalar());
  ASSERT_EQ(S->rhs().size(), 2u);
  EXPECT_EQ(S->rhs()[0].K, RhsTerm::Kind::SumReduce);
  EXPECT_EQ(S->rhs()[1].K, RhsTerm::Kind::SumReduce);
}

TEST(Parser, MultipleRoutines) {
  auto P = parseOk(R"(
program multi
param n = 4
routine one
real a(n) distribute (block)
begin
  a = 1
end
routine two
real b(n) distribute (block)
begin
  b = 2
end
)");
  EXPECT_EQ(P->Routines.size(), 2u);
  EXPECT_NE(P->findRoutine("one"), nullptr);
  EXPECT_NE(P->findRoutine("two"), nullptr);
  EXPECT_EQ(P->findRoutine("three"), nullptr);
}

TEST(Parser, RoutineParamIsScopedToItsRoutine) {
  const std::string Src = R"(program scoped
param n = 8
routine r0
param m = 4
real a(m) distribute (block)
begin
  a = 1
end
routine r1
real z(m) distribute (block)
begin
  z = 1
end
)";
  DiagEngine D;
  parseProgram(Src, D);
  EXPECT_NE(D.str().find("error: 10:8: unknown name 'm'"), std::string::npos)
      << D.str();

  // The declaring routine sees its param; a file-level override still
  // wins inside it, and binds the name for every routine.
  std::string Own = Src.substr(0, Src.find("routine r1"));
  EXPECT_EQ(parseOk(Own)->Routines[0]->array(0).extent(0), 4);
  auto P = parseOk(Src, {{"m", 12}});
  EXPECT_EQ(P->Routines[0]->array(0).extent(0), 12);
  EXPECT_EQ(P->Routines[1]->array(0).extent(0), 12);
}

TEST(Parser, RoutineBlocksParseAtTheirOwnLines) {
  const std::string Prelude = "program blocks\nparam n = 6\n";
  const std::string R0 = "routine r0\nreal a(n) distribute (block)\n"
                         "begin\n  a(1:n) = 1\nend\n";
  const std::string R1 = "routine r1\nparam k = 2\n"
                         "real b(n+k) distribute (block)\n"
                         "begin\n  b(1:n) = b(2:n+1)\nend\n";
  const std::string Whole = Prelude + R0 + R1;
  DiagEngine WholeDiags;
  std::unique_ptr<Program> Ref = parseProgram(Whole, WholeDiags);
  ASSERT_FALSE(WholeDiags.hasErrors()) << WholeDiags.str();

  // Only the second routine, at the line it has in the whole file: same
  // routine, same statement locations.
  DiagEngine D;
  std::unique_ptr<Program> P =
      parseRoutineBlocks(Prelude, {{R1, 8}}, D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  ASSERT_EQ(P->Routines.size(), 1u);
  EXPECT_EQ(P->Name, "blocks");
  EXPECT_EQ(printRoutine(*P->Routines[0]), printRoutine(*Ref->Routines[1]));
  EXPECT_EQ(P->Routines[0]->body()[0]->loc().Line,
            Ref->Routines[1]->body()[0]->loc().Line);
  EXPECT_EQ(P->Routines[0]->body()[0]->loc().Line, 12);

  // A block holding more than one routine, or a prelude holding more than
  // the header, is an error rather than a silent regrouping.
  DiagEngine Two;
  parseRoutineBlocks(Prelude, {{R0 + R1, 3}}, Two);
  EXPECT_NE(Two.str().find("trailing tokens"), std::string::npos) << Two.str();
  DiagEngine Header;
  parseRoutineBlocks(Prelude + "real x\n", {{R0, 4}}, Header);
  EXPECT_TRUE(Header.hasErrors());
  DiagEngine Lex;
  EXPECT_EQ(parseRoutineBlocks(Prelude, {{"routine r0\nreal a(@)\n", 3}}, Lex),
            nullptr);
  EXPECT_NE(Lex.str().find("error: 4:8: unexpected character '@'"),
            std::string::npos)
      << Lex.str();
}

TEST(Parser, ErrorUndeclaredName) {
  std::string E = parseErr(R"(
program e
param n = 4
real a(n) distribute (block)
begin
  a = q
end
)");
  EXPECT_NE(E.find("unknown name 'q'"), std::string::npos);
}

TEST(Parser, ErrorRankMismatch) {
  std::string E = parseErr(R"(
program e
param n = 4
real a(n,n) distribute (block,block)
begin
  a(1) = 0
end
)");
  EXPECT_NE(E.find("rank"), std::string::npos);
}

TEST(Parser, ErrorNonAffine) {
  std::string E = parseErr(R"(
program e
param n = 4
real a(n) distribute (block)
begin
  do i = 1, n
    a(i*i) = 0
  end do
end
)");
  EXPECT_NE(E.find("not affine"), std::string::npos);
}

TEST(Parser, ErrorRedeclaration) {
  std::string E = parseErr(R"(
program e
param n = 4
real a(n) distribute (block)
real a(n) distribute (block)
begin
  a = 1
end
)");
  EXPECT_NE(E.find("redeclaration"), std::string::npos);
}

TEST(Parser, PrintedRoutineReparses) {
  auto P = parseOk(R"(
program round
param n = 8
real a(n,n) distribute (block,*)
real b(n,n) distribute (block,*)
begin
  b(:,1:n:2) = 1
  do i = 2, n
    a(i,1) = b(i-1,1) + 2
  end do
end
)");
  std::string Text = printRoutine(*P->Routines[0]);
  // The printer emits "routine <name>"; turn it into a parseable program.
  std::string Again = "program round\n" +
                      Text.substr(Text.find('\n') + 1);
  auto P2 = parseOk(Again);
  EXPECT_EQ(printRoutine(*P2->Routines[0]).substr(7),
            Text.substr(7)); // Skip "routine"/"program" prefix difference.
}
