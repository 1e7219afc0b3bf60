#include "translate/options.hpp"

#include <sstream>

#include "support/parse.hpp"

namespace ctdf::translate {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Value of "--flag=value" (empty when no '=').
std::string_view value_of(std::string_view arg) {
  const auto eq = arg.find('=');
  return eq == std::string_view::npos ? std::string_view{}
                                      : arg.substr(eq + 1);
}

}  // namespace

std::string TranslateOptions::describe() const {
  std::ostringstream os;
  if (sequential) {
    os << "schema1(sequential)";
  } else {
    os << "schema" << (cover == CoverStrategy::kSingleton ? "2" : "3")
       << "(cover=" << to_string(cover) << ")";
  }
  if (optimize_switches) os << "+opt-switches";
  if (eliminate_memory) os << "+mem-elim";
  if (parallel_reads && !sequential) os << "+par-reads";
  if (!parallel_store_arrays.empty()) os << "+fig14";
  if (!istructure_arrays.empty()) os << "+istructures";
  if (dead_store_elimination) os << "+dse";
  if (opt_level != dfg::OptLevel::kNone) os << "+post-opt";
  if (opt_level == dfg::OptLevel::kAll) os << "+fuse";
  return os.str();
}

TranslateOptions TranslateOptions::normalized() const {
  TranslateOptions o = *this;
  if (o.sequential) {
    o.cover = CoverStrategy::kUnified;
    o.optimize_switches = false;
    o.eliminate_memory = false;
    o.parallel_reads = true;
    o.parallel_store_arrays.clear();
    o.istructure_arrays.clear();
  }
  return o;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

SchemaFlagParse apply_schema_flag(TranslateOptions& o, std::string_view arg) {
  if (arg == "--schema1") {
    o = TranslateOptions::schema1();
  } else if (arg == "--no-opt") {
    o.optimize_switches = false;
  } else if (starts_with(arg, "--cover=")) {
    const auto v = value_of(arg);
    if (v == "singleton")
      o.cover = CoverStrategy::kSingleton;
    else if (v == "alias-class")
      o.cover = CoverStrategy::kAliasClass;
    else if (v == "component")
      o.cover = CoverStrategy::kComponent;
    else if (v == "unified")
      o.cover = CoverStrategy::kUnified;
    else
      return SchemaFlagParse::kBadValue;
  } else if (arg == "--mem-elim") {
    o.eliminate_memory = true;
  } else if (arg == "--dse") {
    o.dead_store_elimination = true;
  } else if (starts_with(arg, "--opt=")) {
    const auto v = value_of(arg);
    if (v == "none")
      o.opt_level = dfg::OptLevel::kNone;
    else if (v == "cleanup")
      o.opt_level = dfg::OptLevel::kCleanup;
    else if (v == "all")
      o.opt_level = dfg::OptLevel::kAll;
    else
      return SchemaFlagParse::kBadValue;
  } else if (starts_with(arg, "--max-fanout=")) {
    // lower_fanout requires ≥ 2 destinations (0 = unlimited, stage off);
    // 1 would demand infinite replication.
    unsigned long long v = 0;
    if (!support::parse_unsigned(std::string(value_of(arg)), v) || v == 1)
      return SchemaFlagParse::kBadValue;
    o.max_fanout = static_cast<std::size_t>(v);
  } else if (arg == "--par-reads") {
    o.parallel_reads = true;
  } else if (starts_with(arg, "--fig14=")) {
    o.parallel_store_arrays = split_csv(std::string(value_of(arg)));
  } else if (starts_with(arg, "--istructure=")) {
    o.istructure_arrays = split_csv(std::string(value_of(arg)));
  } else {
    return SchemaFlagParse::kNotSchemaFlag;
  }
  return SchemaFlagParse::kApplied;
}

}  // namespace ctdf::translate
