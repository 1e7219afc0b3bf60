#include "lang/parser.hpp"

#include <unordered_set>
#include <utility>

#include "lang/lexer.hpp"
#include "support/assert.hpp"

namespace ctdf::lang {

namespace {

class Parser {
 public:
  Parser(std::string_view source, support::DiagnosticEngine& diags)
      : diags_(diags), tokens_(lex(source, diags)) {}

  Program run() {
    Program prog;
    parse_decls(prog);
    while (!at(TokKind::kEof)) {
      if (parse_stmt(prog, prog.body, /*top_level=*/true)) continue;
      sync();
      // sync() stops at a '}' for the enclosing block to consume. At top
      // level there is no block, so consume it here or the loop would
      // report the same '}' forever.
      accept(TokKind::kRBrace);
    }
    validate_labels(prog);
    return prog;
  }

 private:
  // --- token helpers -----------------------------------------------------

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool at(TokKind k) const { return peek().kind == k; }
  Token advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool accept(TokKind k) {
    if (!at(k)) return false;
    advance();
    return true;
  }

  bool expect(TokKind k) {
    if (accept(k)) return true;
    error(peek().loc, std::string("expected ") + to_string(k) + ", found " +
                          to_string(peek().kind));
    return false;
  }

  void error(support::SourceLoc loc, std::string msg) {
    diags_.error(loc, std::move(msg));
  }

  /// Error recovery: skip to just past the next ';' or to a '}' / eof.
  void sync() {
    while (!at(TokKind::kEof)) {
      if (accept(TokKind::kSemi)) return;
      if (at(TokKind::kRBrace)) return;
      advance();
    }
  }

  // --- declarations -------------------------------------------------------

  void parse_decls(Program& prog) {
    for (;;) {
      if (at(TokKind::kVar)) {
        advance();
        do {
          const Token t = peek();
          if (!expect(TokKind::kIdent)) break;
          if (!prog.symbols.declare_scalar(t.text))
            error(t.loc, "redeclaration of '" + std::string(t.text) + "'");
        } while (accept(TokKind::kComma));
        expect(TokKind::kSemi);
      } else if (at(TokKind::kArray)) {
        advance();
        do {
          const Token t = peek();
          if (!expect(TokKind::kIdent)) break;
          if (!expect(TokKind::kLBracket)) break;
          const Token size = peek();
          if (!expect(TokKind::kInt)) break;
          if (!expect(TokKind::kRBracket)) break;
          if (size.int_value <= 0) {
            error(size.loc, "array size must be positive");
          } else if (!prog.symbols.declare_array(t.text, size.int_value)) {
            error(t.loc, "redeclaration of '" + std::string(t.text) + "'");
          }
        } while (accept(TokKind::kComma));
        expect(TokKind::kSemi);
      } else if (at(TokKind::kAlias) || at(TokKind::kBind)) {
        const bool is_bind = at(TokKind::kBind);
        advance();
        const Token a = peek();
        if (!expect(TokKind::kIdent)) { sync(); continue; }
        const Token b = peek();
        if (!expect(TokKind::kIdent)) { sync(); continue; }
        expect(TokKind::kSemi);
        const auto va = prog.symbols.lookup(a.text);
        const auto vb = prog.symbols.lookup(b.text);
        if (!va) error(a.loc, "undeclared variable '" + std::string(a.text) + "'");
        if (!vb) error(b.loc, "undeclared variable '" + std::string(b.text) + "'");
        if (va && vb) {
          if (is_bind) {
            if (!prog.symbols.bind(*va, *vb))
              error(a.loc, "cannot bind variables of different kind/size");
          } else {
            prog.symbols.add_alias(*va, *vb);
          }
        }
      } else {
        return;
      }
    }
  }

  // --- statements ----------------------------------------------------------

  bool parse_stmt(Program& prog, std::vector<StmtPtr>& out, bool top_level) {
    std::vector<std::string> labels;
    while (at(TokKind::kIdent) && peek(1).kind == TokKind::kColon) {
      const Token label = advance();
      advance();  // ':'
      if (!top_level) {
        error(label.loc, "labels are only allowed at the top level");
      } else {
        labels.emplace_back(label.text);
      }
    }
    const Token first = peek();
    StmtPtr stmt;
    if (at(TokKind::kGoto)) {
      advance();
      const Token t = peek();
      if (!expect(TokKind::kIdent)) return false;
      if (!expect(TokKind::kSemi)) return false;
      if (!top_level) {
        error(first.loc, "goto is only allowed at the top level");
        return false;
      }
      stmt = Stmt::goto_stmt(std::string(t.text), first.loc);
    } else if (at(TokKind::kIf)) {
      advance();
      auto pred = parse_expr(prog);
      if (!pred) return false;
      if (accept(TokKind::kThen)) {
        // Unstructured fork: if e then goto l1 else goto l2;
        if (!expect(TokKind::kGoto)) return false;
        const Token lt = peek();
        if (!expect(TokKind::kIdent)) return false;
        if (!expect(TokKind::kElse)) return false;
        if (!expect(TokKind::kGoto)) return false;
        const Token lf = peek();
        if (!expect(TokKind::kIdent)) return false;
        if (!expect(TokKind::kSemi)) return false;
        if (!top_level) {
          error(first.loc, "conditional goto is only allowed at the top level");
          return false;
        }
        stmt = Stmt::cond_goto(std::move(pred), std::string(lt.text),
                               std::string(lf.text), first.loc);
      } else {
        std::vector<StmtPtr> then_body;
        if (!parse_block(prog, then_body)) return false;
        std::vector<StmtPtr> else_body;
        if (accept(TokKind::kElse)) {
          if (!parse_block(prog, else_body)) return false;
        }
        stmt = Stmt::if_stmt(std::move(pred), std::move(then_body),
                             std::move(else_body), first.loc);
      }
    } else if (at(TokKind::kWhile)) {
      advance();
      auto pred = parse_expr(prog);
      if (!pred) return false;
      std::vector<StmtPtr> body;
      if (!parse_block(prog, body)) return false;
      stmt = Stmt::while_stmt(std::move(pred), std::move(body), first.loc);
    } else if (at(TokKind::kSkip)) {
      advance();
      if (!expect(TokKind::kSemi)) return false;
      stmt = Stmt::skip(first.loc);
    } else if (at(TokKind::kIdent)) {
      auto lv = parse_lvalue(prog);
      if (!lv) return false;
      if (!expect(TokKind::kAssign)) return false;
      auto rhs = parse_expr(prog);
      if (!rhs) return false;
      if (!expect(TokKind::kSemi)) return false;
      stmt = Stmt::assign(std::move(*lv), std::move(rhs), first.loc);
    } else {
      error(first.loc,
            std::string("expected statement, found ") + to_string(first.kind));
      return false;
    }
    stmt->labels = std::move(labels);
    out.push_back(std::move(stmt));
    return true;
  }

  bool parse_block(Program& prog, std::vector<StmtPtr>& out) {
    if (!expect(TokKind::kLBrace)) return false;
    while (!at(TokKind::kRBrace) && !at(TokKind::kEof)) {
      if (!parse_stmt(prog, out, /*top_level=*/false)) sync();
    }
    return expect(TokKind::kRBrace);
  }

  std::optional<LValue> parse_lvalue(Program& prog) {
    const Token t = advance();  // ident, already checked
    const auto v = prog.symbols.lookup(t.text);
    if (!v) {
      error(t.loc, "undeclared variable '" + std::string(t.text) + "'");
      return std::nullopt;
    }
    LValue lv;
    lv.var = *v;
    if (accept(TokKind::kLBracket)) {
      if (!prog.symbols.is_array(*v))
        error(t.loc, "'" + std::string(t.text) + "' is not an array");
      lv.index = parse_expr(prog);
      if (!lv.index) return std::nullopt;
      if (!expect(TokKind::kRBracket)) return std::nullopt;
    } else if (prog.symbols.is_array(*v)) {
      error(t.loc, "array '" + std::string(t.text) + "' needs a subscript");
      return std::nullopt;
    }
    return lv;
  }

  // --- expressions ----------------------------------------------------------

  /// Binding power of an infix operator, or 0 if `k` is not one.
  static int infix_power(TokKind k) {
    switch (k) {
      case TokKind::kOrOr: return 1;
      case TokKind::kAndAnd: return 2;
      case TokKind::kEqEq: case TokKind::kNe: case TokKind::kLt:
      case TokKind::kLe: case TokKind::kGt: case TokKind::kGe: return 3;
      case TokKind::kPlus: case TokKind::kMinus: return 4;
      case TokKind::kStar: case TokKind::kSlash: case TokKind::kPercent:
        return 5;
      default: return 0;
    }
  }

  static BinOp to_binop(TokKind k) {
    switch (k) {
      case TokKind::kOrOr: return BinOp::kOr;
      case TokKind::kAndAnd: return BinOp::kAnd;
      case TokKind::kEqEq: return BinOp::kEq;
      case TokKind::kNe: return BinOp::kNe;
      case TokKind::kLt: return BinOp::kLt;
      case TokKind::kLe: return BinOp::kLe;
      case TokKind::kGt: return BinOp::kGt;
      case TokKind::kGe: return BinOp::kGe;
      case TokKind::kPlus: return BinOp::kAdd;
      case TokKind::kMinus: return BinOp::kSub;
      case TokKind::kStar: return BinOp::kMul;
      case TokKind::kSlash: return BinOp::kDiv;
      case TokKind::kPercent: return BinOp::kMod;
      default: CTDF_UNREACHABLE("not an infix operator");
    }
  }

  ExprPtr parse_expr(Program& prog, int min_power = 1) {
    auto lhs = parse_unary(prog);
    if (!lhs) return nullptr;
    for (;;) {
      const int power = infix_power(peek().kind);
      if (power < min_power) break;
      const Token op = advance();
      auto rhs = parse_expr(prog, power + 1);  // left-associative
      if (!rhs) return nullptr;
      lhs = Expr::binary(to_binop(op.kind), std::move(lhs), std::move(rhs),
                         op.loc);
    }
    return lhs;
  }

  ExprPtr parse_unary(Program& prog) {
    const Token t = peek();
    if (accept(TokKind::kMinus)) {
      auto e = parse_unary(prog);
      return e ? Expr::unary(UnOp::kNeg, std::move(e), t.loc) : nullptr;
    }
    if (accept(TokKind::kBang)) {
      auto e = parse_unary(prog);
      return e ? Expr::unary(UnOp::kNot, std::move(e), t.loc) : nullptr;
    }
    return parse_primary(prog);
  }

  ExprPtr parse_primary(Program& prog) {
    const Token t = advance();
    switch (t.kind) {
      case TokKind::kInt:
        return Expr::constant(t.int_value, t.loc);
      case TokKind::kLParen: {
        auto e = parse_expr(prog);
        if (!e) return nullptr;
        if (!expect(TokKind::kRParen)) return nullptr;
        return e;
      }
      case TokKind::kIdent: {
        const auto v = prog.symbols.lookup(t.text);
        if (!v) {
          error(t.loc, "undeclared variable '" + std::string(t.text) + "'");
          return nullptr;
        }
        if (accept(TokKind::kLBracket)) {
          if (!prog.symbols.is_array(*v))
            error(t.loc, "'" + std::string(t.text) + "' is not an array");
          auto idx = parse_expr(prog);
          if (!idx) return nullptr;
          if (!expect(TokKind::kRBracket)) return nullptr;
          return Expr::array_ref(*v, std::move(idx), t.loc);
        }
        if (prog.symbols.is_array(*v)) {
          error(t.loc, "array '" + std::string(t.text) + "' needs a subscript");
          return nullptr;
        }
        return Expr::variable(*v, t.loc);
      }
      default:
        error(t.loc, std::string("expected expression, found ") +
                         to_string(t.kind));
        return nullptr;
    }
  }

  // --- label validation ------------------------------------------------------

  void validate_labels(Program& prog) {
    std::unordered_set<std::string> defined{"end"};
    for (const auto& s : prog.body) {
      for (const auto& l : s->labels) {
        if (l == "end" || l == "start") {
          error(s->loc, "label '" + l + "' is reserved");
        } else if (!defined.insert(l).second) {
          error(s->loc, "duplicate label '" + l + "'");
        }
      }
    }
    for (const auto& s : prog.body) {
      if (s->kind == Stmt::Kind::kGoto || s->kind == Stmt::Kind::kCondGoto) {
        if (!defined.contains(s->target_true))
          error(s->loc, "undefined label '" + s->target_true + "'");
        if (s->kind == Stmt::Kind::kCondGoto &&
            !defined.contains(s->target_false))
          error(s->loc, "undefined label '" + s->target_false + "'");
      }
    }
  }

  support::DiagnosticEngine& diags_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse(std::string_view source, support::DiagnosticEngine& diags) {
  return Parser{source, diags}.run();
}

Program parse_or_throw(std::string_view source) {
  support::DiagnosticEngine diags;
  Program prog = parse(source, diags);
  diags.throw_if_errors();
  return prog;
}

}  // namespace ctdf::lang
