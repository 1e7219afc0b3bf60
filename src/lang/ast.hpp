// Abstract syntax for the ctdf source language.
//
// The language is deliberately the one of the paper's Section 2.1: a
// program is a sequence of (optionally labeled) statements over scalar
// and array variables, with assignments, unstructured two-way forks
// (`if e then goto l1 else goto l2`), unconditional gotos, and the
// structured `if {...} else {...}` / `while {...}` sugar that lowers to
// the same CFG node kinds. Labels and gotos may appear only at the top
// level (the parser enforces this), which keeps CFG lowering and the
// reference interpreter straightforward without losing any of the
// unstructured-flow generality the paper cares about.
//
// Arithmetic is over int64 with total semantics: division/modulo by
// zero yield 0 (documented, deliberate — it keeps randomly generated
// programs total so schema-equivalence property tests never trap).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/symbols.hpp"
#include "support/diagnostics.hpp"

namespace ctdf::lang {

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp : std::uint8_t { kNeg, kNot };

[[nodiscard]] const char* to_string(BinOp op);
[[nodiscard]] const char* to_string(UnOp op);

/// Total int64 evaluation of a binary operator (div/mod by 0 == 0;
/// comparisons/logicals yield 0/1). Shared by the interpreter, the
/// constant folder, and the machine ALU so all three agree bit-for-bit.
[[nodiscard]] std::int64_t eval_binop(BinOp op, std::int64_t a,
                                      std::int64_t b);
[[nodiscard]] std::int64_t eval_unop(UnOp op, std::int64_t a);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t { kConst, kVar, kArrayRef, kBinary, kUnary };

  Kind kind;
  support::SourceLoc loc;

  std::int64_t value = 0;       ///< kConst
  VarId var;                    ///< kVar / kArrayRef (the array base)
  BinOp bop = BinOp::kAdd;      ///< kBinary
  UnOp uop = UnOp::kNeg;        ///< kUnary
  ExprPtr lhs;                  ///< kBinary lhs / kUnary operand / kArrayRef index
  ExprPtr rhs;                  ///< kBinary rhs

  static ExprPtr constant(std::int64_t v, support::SourceLoc loc = {});
  static ExprPtr variable(VarId v, support::SourceLoc loc = {});
  static ExprPtr array_ref(VarId base, ExprPtr index,
                           support::SourceLoc loc = {});
  static ExprPtr binary(BinOp op, ExprPtr l, ExprPtr r,
                        support::SourceLoc loc = {});
  static ExprPtr unary(UnOp op, ExprPtr operand, support::SourceLoc loc = {});

  /// Every variable referenced (base variables of array refs included),
  /// deduplicated, appended to `out`.
  void collect_vars(std::vector<VarId>& out) const;

  [[nodiscard]] std::string to_string(const SymbolTable& syms) const;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Destination of an assignment: a scalar or an indexed array element.
struct LValue {
  VarId var;
  ExprPtr index;  ///< null for scalars

  [[nodiscard]] bool is_array_elem() const { return index != nullptr; }
  [[nodiscard]] std::string to_string(const SymbolTable& syms) const;
};

struct Stmt {
  enum class Kind : std::uint8_t {
    kAssign,    ///< lhs := expr
    kIf,        ///< structured if expr { then } [ else { els } ]
    kWhile,     ///< structured while expr { body }
    kGoto,      ///< goto label
    kCondGoto,  ///< if expr then goto label_true else goto label_false
    kSkip,      ///< no-op
  };

  Kind kind;
  support::SourceLoc loc;

  /// Labels attached to this statement (top-level statements only).
  std::vector<std::string> labels;

  LValue lhs;          ///< kAssign
  ExprPtr expr;        ///< kAssign rhs / kIf / kWhile / kCondGoto predicate
  std::vector<StmtPtr> then_body;  ///< kIf then / kWhile body
  std::vector<StmtPtr> else_body;  ///< kIf else
  std::string target_true;         ///< kGoto / kCondGoto
  std::string target_false;        ///< kCondGoto

  static StmtPtr assign(LValue lhs, ExprPtr rhs, support::SourceLoc loc = {});
  static StmtPtr if_stmt(ExprPtr pred, std::vector<StmtPtr> then_body,
                         std::vector<StmtPtr> else_body,
                         support::SourceLoc loc = {});
  static StmtPtr while_stmt(ExprPtr pred, std::vector<StmtPtr> body,
                            support::SourceLoc loc = {});
  static StmtPtr goto_stmt(std::string target, support::SourceLoc loc = {});
  static StmtPtr cond_goto(ExprPtr pred, std::string if_true,
                           std::string if_false, support::SourceLoc loc = {});
  static StmtPtr skip(support::SourceLoc loc = {});
};

/// A whole translation unit: declarations plus the top-level statement
/// sequence. Execution starts at the first statement and ends by falling
/// off the end or via `goto end` (the label `end` is predefined).
struct Program {
  SymbolTable symbols;
  std::vector<StmtPtr> body;

  /// Pretty-print back to (parseable) source form.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace ctdf::lang
