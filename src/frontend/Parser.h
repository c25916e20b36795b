//===- frontend/Parser.h - HPF-lite parser ----------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for HPF-lite, the small data-parallel dialect
/// used by the workloads. The grammar (statements end at line breaks, `!` or
/// `//` start comments):
///
/// \code
///   file      := ["program" IDENT] param*
///                (routine+ | (decl | param)* "begin" stmt* "end")
///   routine   := "routine" IDENT (decl | param)* "begin" stmt* "end"
///   param     := "param" IDENT "=" cexpr
///   decl      := "real" IDENT ["(" dim ("," dim)* ")"]
///                ["distribute" "(" dist ("," dist)* ")"]
///   dim       := cexpr [":" cexpr]
///   dist      := "block" | "cyclic" | "*"
///   stmt      := assign | doLoop | ifStmt
///   doLoop    := "do" IDENT "=" expr "," expr ["," cexpr]
///                stmt* "end" "do"
///   ifStmt    := "if" "(" cond ")" "then" stmt* ["else" stmt*] "end" "if"
///   assign    := lvalue "=" term (("+"|"-"|"*"|"/") term)*
///   lvalue    := IDENT ["(" sub ("," sub)* ")"]
///   term      := "sum" "(" ref ")" | ref | IDENT | NUMBER
///   ref       := IDENT ["(" sub ("," sub)* ")"]
///   sub       := ":" | expr [":" expr [":" cexpr]]
///   expr      := affine arithmetic over in-scope loop vars and params
/// \endcode
///
/// Program parameters are folded to constants during parsing, so the IR that
/// comes out has concrete array bounds and loop bounds affine in loop
/// variables only. A `param` before the first routine is visible in every
/// routine; one declared inside a routine is visible only in that routine.
/// Command-line overrides win over both. A routine therefore depends only on
/// the file's header and its own text, which is what lets a caller parse
/// routines one at a time (parseRoutineBlocks).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_FRONTEND_PARSER_H
#define GCA_FRONTEND_PARSER_H

#include "ir/Ast.h"
#include "support/Diag.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace gca {

/// Compile-time parameter bindings that override/extend `param` declarations
/// in the source (this is how benchmarks sweep the problem size n).
using ParamMap = std::map<std::string, int64_t>;

/// Parses \p Src into a Program. Errors go to \p Diags; returns a (possibly
/// partially populated) program, or null if nothing could be parsed.
/// \p Overrides wins over `param` declarations with the same name.
std::unique_ptr<Program> parseProgram(const std::string &Src,
                                      DiagEngine &Diags,
                                      const ParamMap &Overrides = {});

/// A block of source text cut out of a larger file at a line start.
struct SourceBlock {
  std::string_view Text;
  int StartLine = 1; ///< The file line that Text's first byte sits on.
};

/// Parses a program from its header block \p Prelude (the `program` line
/// and file-level params, starting at line 1) and some of its `routine`
/// blocks, each lexed and parsed on its own at its own start line, so
/// locations are those of the whole file. Each block must hold exactly one
/// routine and the prelude nothing but the header. When the prelude and
/// every block of a file parse without errors, parseProgram() on the whole
/// file yields the same routines and diagnostics. On errors they can
/// differ, because a whole-file parse recovers across block boundaries.
std::unique_ptr<Program>
parseRoutineBlocks(std::string_view Prelude,
                   const std::vector<SourceBlock> &Routines, DiagEngine &Diags,
                   const ParamMap &Overrides = {});

} // namespace gca

#endif // GCA_FRONTEND_PARSER_H
