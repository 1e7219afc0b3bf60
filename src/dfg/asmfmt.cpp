#include "dfg/asmfmt.hpp"

#include <charconv>
#include <map>
#include <sstream>

#include "support/assert.hpp"

namespace ctdf::dfg {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == ';') {
      // ';' starts a comment in the line format; labels are advisory,
      // so substitute rather than complicate the grammar.
      out += ',';
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

const char* binop_name(lang::BinOp op) { return lang::to_string(op); }
const char* unop_name(lang::UnOp op) {
  return op == lang::UnOp::kNeg ? "neg" : "not";
}

}  // namespace

std::string write_asm(const Module& module) {
  const Graph& g = module.graph;
  std::ostringstream os;
  os << "; ctdf dataflow assembly v1\n";
  os << "memory " << module.memory_cells << "\n";
  for (const lang::CellRegion& r : module.istructures)
    os << "istructure " << r.base << ' ' << r.extent << "\n";

  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    os << "node n" << n.value() << ' ' << to_string(node.kind);
    switch (node.kind) {
      case OpKind::kStart:
        os << " outs=" << node.num_outputs << " values=[";
        for (std::size_t i = 0; i < node.start_values.size(); ++i)
          os << (i ? "," : "") << node.start_values[i];
        os << ']';
        break;
      case OpKind::kEnd:
      case OpKind::kSynch:
        os << " ins=" << node.num_inputs;
        break;
      case OpKind::kBinOp:
        os << " op=" << binop_name(node.bop);
        break;
      case OpKind::kUnOp:
        os << " op=" << unop_name(node.uop);
        break;
      case OpKind::kLoad:
      case OpKind::kStore:
        os << " base=" << node.mem_base;
        break;
      case OpKind::kLoadIdx:
      case OpKind::kStoreIdx:
      case OpKind::kIStore:
      case OpKind::kIFetch:
        os << " base=" << node.mem_base << " extent=" << node.mem_extent;
        break;
      case OpKind::kLoopEntry:
      case OpKind::kLoopExit:
        os << " loop=" << node.loop.value() << " ports=" << node.num_inputs;
        break;
      case OpKind::kMacro:
        // head= is the original chain-head kind; op= (when the head is
        // an ALU op) and steps=[...] follow. Step tokens: b:<op>:<vp>:<lit>
        // (binop), u:<op> (unop), g:<vp>:<lit> (gate), s (synch).
        os << " ins=" << node.num_inputs
           << " head=" << to_string(node.head_kind);
        if (node.head_kind == OpKind::kBinOp)
          os << " op=" << binop_name(node.bop);
        else if (node.head_kind == OpKind::kUnOp)
          os << " op=" << unop_name(node.uop);
        os << " steps=[";
        for (std::size_t i = 0; i < node.steps.size(); ++i) {
          const FusedStep& s = node.steps[i];
          if (i) os << ',';
          switch (s.kind) {
            case OpKind::kBinOp:
              os << "b:" << binop_name(s.bop) << ':' << s.value_port << ':'
                 << s.literal;
              break;
            case OpKind::kUnOp:
              os << "u:" << unop_name(s.uop);
              break;
            case OpKind::kGate:
              os << "g:" << s.value_port << ':' << s.literal;
              break;
            case OpKind::kSynch:
              os << 's';
              break;
            default:
              CTDF_UNREACHABLE("bad FusedStep kind");
          }
        }
        os << ']';
        break;
      case OpKind::kSwitch:
      case OpKind::kMerge:
      case OpKind::kGate:
        break;
    }
    for (std::uint16_t p = 0; p < node.num_inputs; ++p)
      if (node.operands[p].is_literal)
        os << " in" << p << "=#" << node.operands[p].literal;
    if (!node.label.empty()) os << " label=\"" << escape(node.label) << '"';
    os << "\n";
  }

  for (const Arc& a : g.arcs()) {
    os << "arc n" << a.src.value() << '.' << a.src_port << " -> n"
       << a.dst.value() << '.' << a.dst_port;
    if (a.dummy) os << " dummy";
    os << "\n";
  }
  os << "start n" << g.start().value() << "\n";
  os << "end n" << g.end().value() << "\n";
  return os.str();
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, support::DiagnosticEngine& diags)
      : text_(text), diags_(diags) {}

  Module run() {
    std::size_t pos = 0;
    std::uint32_t lineno = 0;
    while (pos < text_.size()) {
      ++lineno;
      std::size_t eol = text_.find('\n', pos);
      if (eol == std::string_view::npos) eol = text_.size();
      parse_line(text_.substr(pos, eol - pos), lineno);
      pos = eol + 1;
    }
    return std::move(module_);
  }

 private:
  void error(std::uint32_t line, const std::string& msg) {
    diags_.error({line, 1}, msg);
  }

  static std::vector<std::string> split(std::string_view line) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size()) break;
      if (line[i] == '"' || (line.substr(i).starts_with("label=\""))) {
        // Keep quoted label (possibly containing spaces) as one token.
        std::size_t start = i;
        i = line.find('"', i);
        CTDF_ASSERT(i != std::string_view::npos);
        ++i;
        while (i < line.size() && !(line[i] == '"' && line[i - 1] != '\\'))
          ++i;
        out.emplace_back(line.substr(start, std::min(i + 1, line.size()) -
                                                start));
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ') ++i;
      out.emplace_back(line.substr(start, i - start));
    }
    return out;
  }

  static bool to_int(std::string_view s, std::int64_t& v) {
    const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
    return r.ec == std::errc{} && r.ptr == s.data() + s.size();
  }

  bool node_ref(std::string_view tok, NodeId& out, std::uint16_t& port,
                bool with_port) {
    if (!tok.starts_with('n')) return false;
    tok.remove_prefix(1);
    std::int64_t id = 0, p = 0;
    if (with_port) {
      const auto dot = tok.find('.');
      if (dot == std::string_view::npos) return false;
      if (!to_int(tok.substr(0, dot), id)) return false;
      if (!to_int(tok.substr(dot + 1), p)) return false;
    } else {
      if (!to_int(tok, id)) return false;
    }
    const auto it = remap_.find(static_cast<std::uint32_t>(id));
    if (it == remap_.end()) return false;
    out = it->second;
    port = static_cast<std::uint16_t>(p);
    return true;
  }

  void parse_line(std::string_view line, std::uint32_t lineno) {
    // Strip comments.
    if (const auto sc = line.find(';'); sc != std::string_view::npos)
      line = line.substr(0, sc);
    const auto toks = split(line);
    if (toks.empty()) return;
    const std::string& cmd = toks.front();
    std::int64_t a = 0, b = 0;

    if (cmd == "memory") {
      if (toks.size() == 2 && to_int(toks[1], a)) {
        module_.memory_cells = static_cast<std::size_t>(a);
      } else {
        error(lineno, "bad memory line");
      }
    } else if (cmd == "istructure") {
      if (toks.size() == 3 && to_int(toks[1], a) && to_int(toks[2], b)) {
        module_.istructures.push_back({static_cast<std::uint32_t>(a),
                                       static_cast<std::uint32_t>(b)});
      } else {
        error(lineno, "bad istructure line");
      }
    } else if (cmd == "node") {
      parse_node(toks, lineno);
    } else if (cmd == "arc") {
      // arc nS.P -> nD.P [dummy]
      NodeId src, dst;
      std::uint16_t sp = 0, dp = 0;
      if (toks.size() < 4 || toks[2] != "->" ||
          !node_ref(toks[1], src, sp, true) ||
          !node_ref(toks[3], dst, dp, true)) {
        error(lineno, "bad arc line");
        return;
      }
      const bool dummy = toks.size() > 4 && toks[4] == "dummy";
      module_.graph.connect({src, sp}, {dst, dp}, dummy);
    } else if (cmd == "start" || cmd == "end") {
      NodeId n;
      std::uint16_t unused = 0;
      if (toks.size() != 2 || !node_ref(toks[1], n, unused, false)) {
        error(lineno, "bad " + cmd + " line");
        return;
      }
      if (cmd == "start")
        module_.graph.set_start(n);
      else
        module_.graph.set_end(n);
    } else {
      error(lineno, "unknown directive '" + cmd + "'");
    }
  }

  void parse_node(const std::vector<std::string>& toks, std::uint32_t lineno) {
    if (toks.size() < 3 || !toks[1].starts_with('n')) {
      error(lineno, "bad node line");
      return;
    }
    std::int64_t id = 0;
    if (!to_int(std::string_view(toks[1]).substr(1), id)) {
      error(lineno, "bad node id");
      return;
    }
    static const std::map<std::string, OpKind> kKinds = {
        {"start", OpKind::kStart},       {"end", OpKind::kEnd},
        {"binop", OpKind::kBinOp},       {"unop", OpKind::kUnOp},
        {"load", OpKind::kLoad},         {"load[]", OpKind::kLoadIdx},
        {"store", OpKind::kStore},       {"store[]", OpKind::kStoreIdx},
        {"switch", OpKind::kSwitch},     {"merge", OpKind::kMerge},
        {"synch", OpKind::kSynch},       {"loop-entry", OpKind::kLoopEntry},
        {"loop-exit", OpKind::kLoopExit},{"istore", OpKind::kIStore},
        {"ifetch", OpKind::kIFetch},     {"gate", OpKind::kGate},
        {"macro", OpKind::kMacro},
    };
    const auto kind_it = kKinds.find(toks[2]);
    if (kind_it == kKinds.end()) {
      error(lineno, "unknown operator kind '" + toks[2] + "'");
      return;
    }

    Node node;
    node.kind = kind_it->second;
    // Kind-default arities; overridden by fields below.
    switch (node.kind) {
      case OpKind::kStart: node.num_inputs = 0; node.num_outputs = 0; break;
      case OpKind::kEnd: node.num_inputs = 0; node.num_outputs = 0; break;
      case OpKind::kBinOp: node.num_inputs = 2; node.num_outputs = 1; break;
      case OpKind::kUnOp: node.num_inputs = 1; node.num_outputs = 1; break;
      case OpKind::kLoad: node.num_inputs = 1; node.num_outputs = 2; break;
      case OpKind::kLoadIdx: node.num_inputs = 2; node.num_outputs = 2; break;
      case OpKind::kStore: node.num_inputs = 2; node.num_outputs = 1; break;
      case OpKind::kStoreIdx: node.num_inputs = 3; node.num_outputs = 1; break;
      case OpKind::kSwitch: node.num_inputs = 2; node.num_outputs = 2; break;
      case OpKind::kMerge: node.num_inputs = 1; node.num_outputs = 1; break;
      case OpKind::kSynch: node.num_inputs = 0; node.num_outputs = 1; break;
      case OpKind::kLoopEntry:
      case OpKind::kLoopExit: break;
      case OpKind::kIStore: node.num_inputs = 3; node.num_outputs = 1; break;
      case OpKind::kIFetch: node.num_inputs = 2; node.num_outputs = 1; break;
      case OpKind::kGate: node.num_inputs = 2; node.num_outputs = 1; break;
      case OpKind::kMacro: node.num_inputs = 2; node.num_outputs = 1; break;
    }

    struct Lit {
      std::uint16_t port;
      std::int64_t value;
    };
    std::vector<Lit> literals;
    for (std::size_t i = 3; i < toks.size(); ++i) {
      const std::string& f = toks[i];
      const auto eq = f.find('=');
      if (eq == std::string::npos) {
        error(lineno, "bad field '" + f + "'");
        return;
      }
      const std::string key = f.substr(0, eq);
      const std::string val = f.substr(eq + 1);
      std::int64_t num = 0;
      if (key == "outs" && to_int(val, num)) {
        node.num_outputs = static_cast<std::uint16_t>(num);
      } else if (key == "ins" && to_int(val, num)) {
        node.num_inputs = static_cast<std::uint16_t>(num);
      } else if (key == "ports" && to_int(val, num)) {
        node.num_inputs = node.num_outputs =
            static_cast<std::uint16_t>(num);
      } else if (key == "base" && to_int(val, num)) {
        node.mem_base = static_cast<std::uint32_t>(num);
      } else if (key == "extent" && to_int(val, num)) {
        node.mem_extent = num;
      } else if (key == "loop" && to_int(val, num)) {
        node.loop = cfg::LoopId{static_cast<std::uint32_t>(num)};
      } else if (key == "values") {
        // values=[a,b,c]
        std::string body = val;
        if (body.size() < 2 || body.front() != '[' || body.back() != ']') {
          error(lineno, "bad values list");
          return;
        }
        body = body.substr(1, body.size() - 2);
        std::stringstream ss(body);
        std::string item;
        while (std::getline(ss, item, ',')) {
          std::int64_t v = 0;
          if (!to_int(item, v)) {
            error(lineno, "bad value '" + item + "'");
            return;
          }
          node.start_values.push_back(v);
        }
      } else if (key == "op") {
        if (!parse_op(node, val)) {
          error(lineno, "unknown op '" + val + "'");
          return;
        }
      } else if (key == "head") {
        // Must precede op= on the line (write_asm emits them in order).
        if (val == "binop") node.head_kind = OpKind::kBinOp;
        else if (val == "unop") node.head_kind = OpKind::kUnOp;
        else if (val == "gate") node.head_kind = OpKind::kGate;
        else if (val == "synch") node.head_kind = OpKind::kSynch;
        else {
          error(lineno, "unknown macro head '" + val + "'");
          return;
        }
      } else if (key == "steps") {
        std::string body = val;
        if (body.size() < 2 || body.front() != '[' || body.back() != ']') {
          error(lineno, "bad steps list");
          return;
        }
        body = body.substr(1, body.size() - 2);
        std::stringstream ss(body);
        std::string item;
        while (std::getline(ss, item, ',')) {
          FusedStep step;
          if (!parse_step(item, step)) {
            error(lineno, "bad step '" + item + "'");
            return;
          }
          node.steps.push_back(step);
        }
      } else if (key == "label") {
        node.label = unquote(val);
      } else if (key.starts_with("in") &&
                 to_int(std::string_view(key).substr(2), num) &&
                 val.starts_with('#')) {
        std::int64_t lit = 0;
        if (!to_int(std::string_view(val).substr(1), lit)) {
          error(lineno, "bad literal in '" + f + "'");
          return;
        }
        literals.push_back({static_cast<std::uint16_t>(num), lit});
      } else {
        error(lineno, "unknown field '" + key + "'");
        return;
      }
    }

    const NodeId added = module_.graph.add(std::move(node));
    for (const Lit& l : literals)
      module_.graph.bind_literal({added, l.port}, l.value);
    remap_[static_cast<std::uint32_t>(id)] = added;
  }

  static bool unop_from_name(const std::string& name, lang::UnOp& out) {
    if (name == "neg") out = lang::UnOp::kNeg;
    else if (name == "not") out = lang::UnOp::kNot;
    else return false;
    return true;
  }

  static bool binop_from_name(const std::string& name, lang::BinOp& out) {
    static const std::map<std::string, lang::BinOp> kOps = {
        {"+", lang::BinOp::kAdd}, {"-", lang::BinOp::kSub},
        {"*", lang::BinOp::kMul}, {"/", lang::BinOp::kDiv},
        {"%", lang::BinOp::kMod}, {"==", lang::BinOp::kEq},
        {"!=", lang::BinOp::kNe}, {"<", lang::BinOp::kLt},
        {"<=", lang::BinOp::kLe}, {">", lang::BinOp::kGt},
        {">=", lang::BinOp::kGe}, {"&&", lang::BinOp::kAnd},
        {"||", lang::BinOp::kOr},
    };
    const auto it = kOps.find(name);
    if (it == kOps.end()) return false;
    out = it->second;
    return true;
  }

  static bool parse_op(Node& node, const std::string& name) {
    if (node.kind == OpKind::kUnOp ||
        (node.kind == OpKind::kMacro && node.head_kind == OpKind::kUnOp))
      return unop_from_name(name, node.uop);
    return binop_from_name(name, node.bop);
  }

  /// Parses one steps=[...] token: b:<op>:<vp>:<lit> / u:<op> /
  /// g:<vp>:<lit> / s.
  static bool parse_step(const std::string& tok, FusedStep& step) {
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= tok.size()) {
      const std::size_t colon = tok.find(':', pos);
      if (colon == std::string::npos) {
        parts.push_back(tok.substr(pos));
        break;
      }
      parts.push_back(tok.substr(pos, colon - pos));
      pos = colon + 1;
    }
    if (parts.empty()) return false;
    std::int64_t num = 0;
    if (parts[0] == "b") {
      step.kind = OpKind::kBinOp;
      if (parts.size() != 4 || !binop_from_name(parts[1], step.bop))
        return false;
      if (!to_int(parts[2], num)) return false;
      step.value_port = static_cast<std::uint16_t>(num);
      if (!to_int(parts[3], step.literal)) return false;
      return true;
    }
    if (parts[0] == "u") {
      step.kind = OpKind::kUnOp;
      step.value_port = 0;
      return parts.size() == 2 && unop_from_name(parts[1], step.uop);
    }
    if (parts[0] == "g") {
      step.kind = OpKind::kGate;
      if (parts.size() != 3 || !to_int(parts[1], num)) return false;
      step.value_port = static_cast<std::uint16_t>(num);
      return to_int(parts[2], step.literal);
    }
    if (parts[0] == "s") {
      step.kind = OpKind::kSynch;
      return parts.size() == 1;
    }
    return false;
  }

  static std::string unquote(const std::string& s) {
    std::string out;
    std::size_t i = 0;
    if (i < s.size() && s[i] == '"') ++i;
    while (i < s.size()) {
      if (s[i] == '"' && i + 1 == s.size()) break;
      if (s[i] == '\\' && i + 1 < s.size()) {
        ++i;
        out += s[i] == 'n' ? '\n' : s[i];
      } else {
        out += s[i];
      }
      ++i;
    }
    return out;
  }

  std::string_view text_;
  support::DiagnosticEngine& diags_;
  Module module_;
  std::map<std::uint32_t, NodeId> remap_;
};

}  // namespace

Module parse_asm(std::string_view text, support::DiagnosticEngine& diags) {
  return Parser{text, diags}.run();
}

Module parse_asm_or_throw(std::string_view text) {
  support::DiagnosticEngine diags;
  Module m = parse_asm(text, diags);
  diags.throw_if_errors();
  return m;
}

}  // namespace ctdf::dfg
