#include "lang/parser.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "lang/lexer.hpp"
#include "support/assert.hpp"

namespace ctdf::lang {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, support::DiagnosticEngine& diags)
      : diags_(diags), tokens_(std::move(tokens)) {}

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
    report_expected(k);
    return false;
  }

  void error(support::SourceLoc loc, std::string msg) {
    if (!too_deep_) diags_.error(loc, std::move(msg));
  }

  // Diagnostics are built out of line ([[gnu::noinline]] here and on
  // the statement parsers below): every function that nesting recurses
  // through pays, per level, for each message temporary inlined into it.
  // Under ASan that made a block level cost 9 KB of stack, and 1 000
  // nested blocks overflowed an 8 MB stack; now it is about 3 KB.

  [[gnu::noinline]] void report_expected(TokKind k) {
    error(peek().loc, std::string("expected ") + to_string(k) + ", found " +
                          to_string(peek().kind));
  }

  /// `what` + the token's kind, at the token.
  [[gnu::noinline]] void report_found(const Token& t, const char* what) {
    error(t.loc, what + std::string(to_string(t.kind)));
  }

  /// `before` + the token's text + `after`, at the token.
  [[gnu::noinline]] void report_quoting(const Token& t, const char* before,
                                        const char* after) {
    error(t.loc, before + std::string(t.text) + after);
  }

  // --- depth bound -----------------------------------------------------------

  /// AST walkers and destructors recurse once per level of the tree, so
  /// the parser builds no tree deeper than this. Depth counts block
  /// nesting and expression depth: parentheses, subscripts, unary
  /// operators and binary operators, including the left spine that a
  /// flat chain like 1+1+…+1 builds. Past it the parser reports one
  /// diagnostic and stops, so the partial tree it destroys is within the
  /// bound too.
  static constexpr int kMaxDepth = 1000;

  /// True while a subtree `height` levels tall fits below the current
  /// depth. Otherwise reports the bound once, skips to the end of the
  /// input and silences every later diagnostic, so no caller builds on.
  bool fits(int height, support::SourceLoc loc) {
    if (depth_ + height <= kMaxDepth) return true;
    stop_too_deep(loc);
    return false;
  }

  [[gnu::noinline]] void stop_too_deep(support::SourceLoc loc) {
    error(loc, "nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    too_deep_ = true;
    pos_ = tokens_.size() - 1;  // the eof token
  }

  /// Descends one level (a block, parenthesis, subscript or operand);
  /// pair with leave().
  bool enter(support::SourceLoc loc) {
    if (!fits(1, loc)) return false;
    ++depth_;
    return true;
  }
  /// Ascends again; the expression parsed below is one level taller.
  void leave() {
    --depth_;
    ++height_;
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

  // Statements nest through parse_stmt → parse_while / parse_if →
  // parse_block → parse_stmt; what cannot nest is parsed out of line.

  bool parse_stmt(Program& prog, std::vector<StmtPtr>& out, bool top_level) {
    std::vector<std::string> labels = parse_labels(top_level);
    const support::SourceLoc loc = peek().loc;
    StmtPtr stmt = accept(TokKind::kWhile) ? parse_while(prog, loc)
                   : accept(TokKind::kIf)  ? parse_if(prog, loc, top_level)
                                           : parse_simple_stmt(prog, top_level);
    if (!stmt) return false;
    stmt->labels = std::move(labels);
    out.push_back(std::move(stmt));
    return true;
  }

  [[gnu::noinline]] std::vector<std::string> parse_labels(bool top_level) {
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
    return labels;
  }

  [[gnu::noinline]] StmtPtr parse_while(Program& prog,
                                        support::SourceLoc loc) {
    auto pred = parse_expr(prog);
    if (!pred) return nullptr;
    std::vector<StmtPtr> body;
    if (!parse_block(prog, body)) return nullptr;
    return Stmt::while_stmt(std::move(pred), std::move(body), loc);
  }

  [[gnu::noinline]] StmtPtr parse_if(Program& prog, support::SourceLoc loc,
                                     bool top_level) {
    auto pred = parse_expr(prog);
    if (!pred) return nullptr;
    if (accept(TokKind::kThen))
      return parse_cond_goto(std::move(pred), loc, top_level);
    std::vector<StmtPtr> then_body;
    if (!parse_block(prog, then_body)) return nullptr;
    std::vector<StmtPtr> else_body;
    if (accept(TokKind::kElse) && !parse_block(prog, else_body))
      return nullptr;
    return Stmt::if_stmt(std::move(pred), std::move(then_body),
                         std::move(else_body), loc);
  }

  /// The rest of `if e then goto l1 else goto l2;` (unstructured fork).
  [[gnu::noinline]] StmtPtr parse_cond_goto(ExprPtr pred,
                                            support::SourceLoc loc,
                                            bool top_level) {
    if (!expect(TokKind::kGoto)) return nullptr;
    const Token lt = peek();
    if (!expect(TokKind::kIdent)) return nullptr;
    if (!expect(TokKind::kElse)) return nullptr;
    if (!expect(TokKind::kGoto)) return nullptr;
    const Token lf = peek();
    if (!expect(TokKind::kIdent)) return nullptr;
    if (!expect(TokKind::kSemi)) return nullptr;
    if (!top_level) {
      error(loc, "conditional goto is only allowed at the top level");
      return nullptr;
    }
    return Stmt::cond_goto(std::move(pred), std::string(lt.text),
                           std::string(lf.text), loc);
  }

  /// goto, skip and assignment: the statements that contain no block.
  [[gnu::noinline]] StmtPtr parse_simple_stmt(Program& prog, bool top_level) {
    const Token first = peek();
    if (accept(TokKind::kGoto)) {
      const Token t = peek();
      if (!expect(TokKind::kIdent) || !expect(TokKind::kSemi)) return nullptr;
      if (!top_level) {
        error(first.loc, "goto is only allowed at the top level");
        return nullptr;
      }
      return Stmt::goto_stmt(std::string(t.text), first.loc);
    }
    if (accept(TokKind::kSkip)) {
      if (!expect(TokKind::kSemi)) return nullptr;
      return Stmt::skip(first.loc);
    }
    if (at(TokKind::kIdent)) {
      auto lv = parse_lvalue(prog);
      if (!lv || !expect(TokKind::kAssign)) return nullptr;
      auto rhs = parse_expr(prog);
      if (!rhs || !expect(TokKind::kSemi)) return nullptr;
      return Stmt::assign(std::move(*lv), std::move(rhs), first.loc);
    }
    report_found(first, "expected statement, found ");
    return nullptr;
  }

  bool parse_block(Program& prog, std::vector<StmtPtr>& out) {
    const support::SourceLoc loc = peek().loc;
    if (!expect(TokKind::kLBrace)) return false;
    if (!enter(loc)) return false;
    while (!at(TokKind::kRBrace) && !at(TokKind::kEof)) {
      if (!parse_stmt(prog, out, /*top_level=*/false)) sync();
    }
    leave();
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
      if (!prog.symbols.is_array(*v)) {
        std::string msg = "'";
        msg += t.text;
        msg += "' is not an array";
        error(t.loc, std::move(msg));
      }
      if (!enter(t.loc)) return std::nullopt;
      lv.index = parse_expr(prog);
      leave();
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

  // Each parse_* below leaves the height of the expression it returns in
  // height_ (a leaf is 0), so a chain can check its left spine.

  ExprPtr parse_expr(Program& prog, int min_power = 1) {
    auto lhs = parse_unary(prog);
    if (!lhs) return nullptr;
    int height = height_;
    for (;;) {
      const int power = infix_power(peek().kind);
      if (power < min_power) break;
      const Token op = advance();
      if (!enter(op.loc)) return nullptr;
      auto rhs = parse_expr(prog, power + 1);  // left-associative
      leave();
      if (!rhs) return nullptr;
      height = std::max(height + 1, height_);
      if (!fits(height, op.loc)) return nullptr;
      lhs = Expr::binary(to_binop(op.kind), std::move(lhs), std::move(rhs),
                         op.loc);
    }
    height_ = height;
    return lhs;
  }

  ExprPtr parse_unary(Program& prog) {
    const Token t = peek();
    if (at(TokKind::kMinus) || at(TokKind::kBang)) {
      const UnOp op = at(TokKind::kMinus) ? UnOp::kNeg : UnOp::kNot;
      advance();
      if (!enter(t.loc)) return nullptr;
      auto e = parse_unary(prog);
      leave();
      return e ? Expr::unary(op, std::move(e), t.loc) : nullptr;
    }
    return parse_primary(prog);
  }

  ExprPtr parse_primary(Program& prog) {
    const Token t = advance();
    height_ = 0;
    switch (t.kind) {
      case TokKind::kInt:
        return Expr::constant(t.int_value, t.loc);
      case TokKind::kLParen: {
        if (!enter(t.loc)) return nullptr;
        auto e = parse_expr(prog);
        leave();
        if (!e) return nullptr;
        if (!expect(TokKind::kRParen)) return nullptr;
        return e;
      }
      case TokKind::kIdent: {
        const auto v = prog.symbols.lookup(t.text);
        if (!v) {
          report_quoting(t, "undeclared variable '", "'");
          return nullptr;
        }
        if (accept(TokKind::kLBracket)) {
          if (!prog.symbols.is_array(*v))
            report_quoting(t, "'", "' is not an array");
          if (!enter(t.loc)) return nullptr;
          auto idx = parse_expr(prog);
          leave();
          if (!idx) return nullptr;
          if (!expect(TokKind::kRBracket)) return nullptr;
          return Expr::array_ref(*v, std::move(idx), t.loc);
        }
        if (prog.symbols.is_array(*v)) {
          report_quoting(t, "array '", "' needs a subscript");
          return nullptr;
        }
        return Expr::variable(*v, t.loc);
      }
      default:
        report_found(t, "expected expression, found ");
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
  int depth_ = 0;   ///< levels enclosing what is being parsed
  int height_ = 0;  ///< see parse_expr
  bool too_deep_ = false;
};

}  // namespace

Program parse(std::string_view source, support::DiagnosticEngine& diags) {
  return Parser{lex(source, diags), diags}.run();
}

Program parse(std::vector<Token> tokens, support::DiagnosticEngine& diags) {
  CTDF_ASSERT_MSG(!tokens.empty() && tokens.back().kind == TokKind::kEof,
                  "a token stream ends in eof");
  return Parser{std::move(tokens), diags}.run();
}

Program parse_or_throw(std::string_view source) {
  support::DiagnosticEngine diags;
  Program prog = parse(source, diags);
  diags.throw_if_errors();
  return prog;
}

}  // namespace ctdf::lang
