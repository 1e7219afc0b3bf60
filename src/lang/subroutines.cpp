#include "lang/subroutines.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "support/assert.hpp"

namespace ctdf::lang {

namespace {

constexpr int kMaxExpansionDepth = 16;

struct SubDef {
  SubroutineInfo info;
  std::vector<Token> body;  ///< tokens between the braces (exclusive)
};

class Expander {
 public:
  /// `tokens` is a whole lexed source, ending in kEof.
  Expander(std::vector<Token> tokens, support::DiagnosticEngine& diags)
      : diags_(diags), tokens_(std::move(tokens)) {}

  /// The program's tokens with every `sub` definition removed and every
  /// call inlined, ending in the source's eof token. Tokens keep their
  /// source positions; substituted identifiers view strings owned by
  /// this expander, which must outlive them.
  std::vector<Token> expand() {
    std::vector<Token> program;
    collect_and_strip(program);
    std::vector<Token> expanded;
    expand_stream(program, {}, 0, expanded);
    expanded.push_back(tokens_.back());
    return expanded;
  }

  ExpansionResult run() {
    std::vector<Token> expanded = expand();
    expanded.pop_back();  // eof
    ExpansionResult out;
    out.source = render(expanded);
    for (auto& [name, def] : subs_) out.subroutines.push_back(def.info);
    return out;
  }

 private:
  // --- pass 1: collect `sub` definitions, keep the rest ---------------------

  void collect_and_strip(std::vector<Token>& program) {
    std::size_t i = 0;
    while (tokens_[i].kind != TokKind::kEof) {
      if (tokens_[i].kind == TokKind::kIdent && tokens_[i].text == "sub") {
        parse_sub(i);  // advances i past the definition
      } else {
        program.push_back(tokens_[i++]);
      }
    }
  }

  void parse_sub(std::size_t& i) {
    const auto loc = tokens_[i].loc;
    ++i;  // 'sub'
    SubDef def;
    if (tokens_[i].kind != TokKind::kIdent) {
      diags_.error(loc, "expected subroutine name after 'sub'");
      return skip_to_close_brace(i);
    }
    def.info.name = std::string(tokens_[i++].text);
    if (tokens_[i].kind != TokKind::kLParen) {
      diags_.error(loc, "expected '(' after subroutine name");
      return skip_to_close_brace(i);
    }
    ++i;
    while (tokens_[i].kind == TokKind::kIdent) {
      def.info.formals.emplace_back(tokens_[i++].text);
      if (tokens_[i].kind == TokKind::kComma) ++i;
    }
    if (tokens_[i].kind != TokKind::kRParen) {
      diags_.error(loc, "expected ')' after parameter list");
      return skip_to_close_brace(i);
    }
    ++i;
    if (tokens_[i].kind != TokKind::kLBrace) {
      diags_.error(loc, "expected '{' to open subroutine body");
      return skip_to_close_brace(i);
    }
    ++i;
    int depth = 1;
    while (depth > 0 && tokens_[i].kind != TokKind::kEof) {
      if (tokens_[i].kind == TokKind::kLBrace) ++depth;
      if (tokens_[i].kind == TokKind::kRBrace && --depth == 0) break;
      def.body.push_back(tokens_[i++]);
    }
    if (tokens_[i].kind == TokKind::kEof) {
      diags_.error(loc, "unterminated subroutine body");
      return;
    }
    ++i;  // closing '}'
    if (subs_.contains(def.info.name)) {
      diags_.error(loc, "redefinition of subroutine '" + def.info.name + "'");
      return;
    }
    subs_.emplace(def.info.name, std::move(def));
  }

  void skip_to_close_brace(std::size_t& i) {
    int depth = 0;
    while (tokens_[i].kind != TokKind::kEof) {
      if (tokens_[i].kind == TokKind::kLBrace) ++depth;
      if (tokens_[i].kind == TokKind::kRBrace && --depth <= 0) {
        ++i;
        return;
      }
      ++i;
    }
  }

  // --- pass 2: expand calls, substituting formals ----------------------------

  using Substitution = std::map<std::string, std::string, std::less<>>;

  void expand_stream(const std::vector<Token>& in, const Substitution& subst,
                     int depth, std::vector<Token>& out) {
    if (depth > kMaxExpansionDepth) {
      diags_.error({}, "subroutine expansion too deep (recursive calls?)");
      return;
    }
    std::size_t i = 0;
    while (i < in.size()) {
      const Token& t = in[i];
      if (t.kind == TokKind::kIdent && t.text == "call") {
        i = expand_call(in, i, subst, depth, out);
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        const auto it = subst.find(t.text);
        if (it != subst.end()) {
          Token repl = t;
          // Token text is a view; intern the replacement so it outlives
          // the per-call substitution map.
          repl.text = interned_.emplace_back(it->second);
          out.push_back(repl);
          ++i;
          continue;
        }
      }
      out.push_back(t);
      ++i;
    }
  }

  std::size_t expand_call(const std::vector<Token>& in, std::size_t i,
                          const Substitution& subst, int depth,
                          std::vector<Token>& out) {
    const auto loc = in[i].loc;
    const auto fail = [&](const std::string& msg) {
      diags_.error(loc, msg);
      // Skip to just past the next ';' to keep parsing the rest.
      while (i < in.size() && in[i].kind != TokKind::kSemi) ++i;
      return i < in.size() ? i + 1 : i;
    };
    ++i;  // 'call'
    if (i >= in.size() || in[i].kind != TokKind::kIdent)
      return fail("expected subroutine name after 'call'");
    const std::string name{in[i].text};
    ++i;
    const auto it = subs_.find(name);
    if (it == subs_.end())
      return fail("call to unknown subroutine '" + name + "'");
    SubDef& def = it->second;
    if (i >= in.size() || in[i].kind != TokKind::kLParen)
      return fail("expected '(' after subroutine name");
    ++i;
    std::vector<std::string> actuals;
    while (i < in.size() && in[i].kind == TokKind::kIdent) {
      std::string actual{in[i].text};
      // Apply the enclosing substitution: a formal passed onward
      // becomes the outer actual.
      if (const auto s = subst.find(actual); s != subst.end())
        actual = s->second;
      actuals.push_back(std::move(actual));
      ++i;
      if (i < in.size() && in[i].kind == TokKind::kComma) ++i;
    }
    if (i >= in.size() || in[i].kind != TokKind::kRParen)
      return fail("arguments to 'call' must be plain variable names "
                  "(reference parameters)");
    ++i;
    if (i >= in.size() || in[i].kind != TokKind::kSemi)
      return fail("expected ';' after call");
    ++i;
    if (actuals.size() != def.info.formals.size())
      return fail("call to '" + name + "' passes " +
                  std::to_string(actuals.size()) + " argument(s), expected " +
                  std::to_string(def.info.formals.size()));

    def.info.call_sites.push_back(actuals);
    Substitution inner;
    for (std::size_t k = 0; k < actuals.size(); ++k)
      inner.emplace(def.info.formals[k], actuals[k]);
    expand_stream(def.body, inner, depth + 1, out);
    return i;
  }

  // --- rendering --------------------------------------------------------------

  static std::string render(const std::vector<Token>& tokens) {
    std::ostringstream os;
    for (const Token& t : tokens) {
      os << t.text;
      switch (t.kind) {
        case TokKind::kSemi:
        case TokKind::kLBrace:
        case TokKind::kRBrace:
        case TokKind::kColon:
          os << '\n';
          break;
        default:
          os << ' ';
          break;
      }
    }
    return os.str();
  }

  support::DiagnosticEngine& diags_;
  std::vector<Token> tokens_;
  std::map<std::string, SubDef, std::less<>> subs_;
  std::deque<std::string> interned_;  ///< stable storage for substituted text
};

}  // namespace

ExpansionResult expand_subroutines(std::string_view source,
                                   support::DiagnosticEngine& diags) {
  return Expander{lex(source, diags), diags}.run();
}

Program parse_with_subroutines(std::string_view source,
                               support::DiagnosticEngine& diags) {
  std::vector<Token> tokens = lex(source, diags);
  const bool has_subroutines =
      std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
        return t.kind == TokKind::kIdent &&
               (t.text == "sub" || t.text == "call");
      });
  if (has_subroutines) {
    Expander expander{std::move(tokens), diags};
    std::vector<Token> expanded = expander.expand();
    if (diags.has_errors()) return {};
    return parse(std::move(expanded), diags);
  }
  if (diags.has_errors()) return {};
  return parse(std::move(tokens), diags);
}

ExpansionResult expand_subroutines_or_throw(std::string_view source) {
  support::DiagnosticEngine diags;
  ExpansionResult out = expand_subroutines(source, diags);
  diags.throw_if_errors();
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> formal_alias_pairs(
    const SubroutineInfo& sub) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const auto& site : sub.call_sites) {
    for (std::size_t i = 0; i < site.size(); ++i) {
      for (std::size_t j = i + 1; j < site.size(); ++j) {
        if (site[i] != site[j]) continue;
        const auto pair = std::make_pair(i, j);
        if (std::find(out.begin(), out.end(), pair) == out.end())
          out.push_back(pair);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string render_alias_decls(const SubroutineInfo& sub) {
  std::string out;
  for (const auto& [i, j] : formal_alias_pairs(sub))
    out += "alias " + sub.formals[i] + " " + sub.formals[j] + ";\n";
  return out;
}

}  // namespace ctdf::lang
