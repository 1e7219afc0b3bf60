#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "translate/cover.hpp"

namespace ctdf::translate {
namespace {

// The paper's Section 5 example: SUBROUTINE F(X,Y,Z) called as F(A,B,A)
// and F(C,D,D): [X]={X,Z}, [Y]={Y,Z}, [Z]={X,Y,Z}.
lang::Program paper_aliases() {
  return lang::parse_or_throw("var x, y, z; alias x z; alias y z;");
}

TEST(Cover, AliasClassesMatchPaperExample) {
  const auto p = paper_aliases();
  const auto x = *p.symbols.lookup("x");
  const auto y = *p.symbols.lookup("y");
  const auto z = *p.symbols.lookup("z");
  EXPECT_EQ(p.symbols.alias_class(x).size(), 2u);
  EXPECT_EQ(p.symbols.alias_class(y).size(), 2u);
  EXPECT_EQ(p.symbols.alias_class(z).size(), 3u);
  EXPECT_TRUE(p.symbols.may_alias(x, z));
  EXPECT_TRUE(p.symbols.may_alias(y, z));
  // The relation is NOT transitive: x and y are not aliased.
  EXPECT_FALSE(p.symbols.may_alias(x, y));
}

TEST(Cover, SingletonAccessSetsCollectAliasClasses) {
  const auto p = paper_aliases();
  const Cover c = Cover::make(p.symbols, CoverStrategy::kSingleton);
  ASSERT_EQ(c.size(), 3u);
  // Ops on x collect {x,z}'s tokens (2), on y collect 2, on z collect 3
  // — exactly the paper's counts.
  EXPECT_EQ(c.access_set(*p.symbols.lookup("x")).size(), 2u);
  EXPECT_EQ(c.access_set(*p.symbols.lookup("y")).size(), 2u);
  EXPECT_EQ(c.access_set(*p.symbols.lookup("z")).size(), 3u);
}

TEST(Cover, UnifiedHasOneElementAndOneTokenPerOp) {
  const auto p = paper_aliases();
  const Cover c = Cover::make(p.symbols, CoverStrategy::kUnified);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.element(0).size(), 3u);
  for (auto v : p.symbols.all_vars())
    EXPECT_EQ(c.access_set(v).size(), 1u);
}

TEST(Cover, AliasClassCoverDeduplicates) {
  const auto p = paper_aliases();
  const Cover c = Cover::make(p.symbols, CoverStrategy::kAliasClass);
  // Classes: {x,z}, {y,z}, {x,y,z} — all distinct here.
  EXPECT_EQ(c.size(), 3u);
  const auto p2 = lang::parse_or_throw("var a, b; alias a b;");
  const Cover c2 = Cover::make(p2.symbols, CoverStrategy::kAliasClass);
  // [a] == [b] == {a,b}: one element.
  EXPECT_EQ(c2.size(), 1u);
}

TEST(Cover, NoAliasingSingletonIsIdentity) {
  const auto p = lang::parse_or_throw("var a, b, c;");
  const Cover c = Cover::make(p.symbols, CoverStrategy::kSingleton);
  EXPECT_EQ(c.size(), 3u);
  for (auto v : p.symbols.all_vars()) {
    ASSERT_EQ(c.access_set(v).size(), 1u);
    EXPECT_EQ(c.singleton_var(c.access_set(v).front()), v);
  }
}

TEST(Cover, EliminabilityRequiresUnaliasedSingletonScalar) {
  const auto p =
      lang::parse_or_throw("var a, b, c; array d[4]; alias a b;");
  const Cover c = Cover::make(p.symbols, CoverStrategy::kSingleton);
  const auto res_of = [&](const char* n) {
    return c.access_set(*p.symbols.lookup(n)).front();
  };
  EXPECT_FALSE(c.eliminable(res_of("a"), p.symbols));  // aliased
  EXPECT_FALSE(c.eliminable(res_of("b"), p.symbols));  // aliased
  EXPECT_TRUE(c.eliminable(res_of("c"), p.symbols));
  EXPECT_FALSE(c.eliminable(res_of("d"), p.symbols));  // array
}

TEST(Cover, AccessSetUnion) {
  const auto p = paper_aliases();
  const Cover c = Cover::make(p.symbols, CoverStrategy::kSingleton);
  const std::vector<lang::VarId> vars = {*p.symbols.lookup("x"),
                                         *p.symbols.lookup("y")};
  std::vector<Resource> u = {99};  // replaced, not appended to
  c.access_set_union(vars, u);
  EXPECT_EQ(u.size(), 3u);  // {x,z} ∪ {y,z}
}

TEST(Cover, ComponentCoverHasSingletonAccessSets) {
  // {x,z},{y,z} form one component; u is alone. No access-set synch
  // trees are ever needed under the component cover.
  const auto p = lang::parse_or_throw(
      "var x, y, z, u; alias x z; alias y z;");
  const Cover c = Cover::make(p.symbols, CoverStrategy::kComponent);
  ASSERT_EQ(c.size(), 2u);
  for (auto v : p.symbols.all_vars())
    EXPECT_EQ(c.access_set(v).size(), 1u) << p.symbols.name(v);
  // u's element is just {u}; the aliased trio shares one element.
  EXPECT_EQ(c.access_set(*p.symbols.lookup("x")),
            c.access_set(*p.symbols.lookup("y")));
  EXPECT_NE(c.access_set(*p.symbols.lookup("u")),
            c.access_set(*p.symbols.lookup("x")));
}

TEST(Cover, ComponentEqualsSingletonWithoutAliasing) {
  const auto p = lang::parse_or_throw("var a, b, c;");
  const Cover c = Cover::make(p.symbols, CoverStrategy::kComponent);
  EXPECT_EQ(c.size(), 3u);
}

TEST(Cover, EveryVariableIsCovered) {
  const auto p = lang::parse_or_throw(
      "var a, b, c, d; alias a b; alias b c; bind a b;");
  for (const auto strat : {CoverStrategy::kSingleton,
                           CoverStrategy::kAliasClass,
                           CoverStrategy::kComponent,
                           CoverStrategy::kUnified}) {
    const Cover c = Cover::make(p.symbols, strat);
    for (auto v : p.symbols.all_vars())
      EXPECT_FALSE(c.access_set(v).empty()) << to_string(strat);
  }
}

TEST(Cover, NamesAreReadable) {
  const auto p = paper_aliases();
  const Cover c = Cover::make(p.symbols, CoverStrategy::kUnified);
  EXPECT_EQ(c.name(0, p.symbols), "{x,y,z}");
}

}  // namespace
}  // namespace ctdf::translate
