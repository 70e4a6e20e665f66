// Tests for SQL surface conveniences: BETWEEN / IN desugaring (through the
// parser, engine and the implication prover) and ORDER BY on select aliases.

#include <gtest/gtest.h>

#include "core/implication.h"
#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

class SqlFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 4;
    cfg.num_dates = 6;
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", GenerateStockS1(cfg)).ok());
  }

  Table Run(const std::string& sql) {
    QueryEngine engine(&catalog_, "s1");
    auto r = engine.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Table();
  }

  Catalog catalog_;
};

TEST_F(SqlFeaturesTest, BetweenDesugarsToRange) {
  auto s = Parser::ParseSelect("select a from t where a between 1 and 5");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.value()->where->ToString(), "a >= 1 AND a <= 5");
}

TEST_F(SqlFeaturesTest, NotBetween) {
  auto s = Parser::ParseSelect("select a from t where a not between 1 and 5");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->where->kind, ExprKind::kNot);
}

TEST_F(SqlFeaturesTest, InDesugarsToDisjunction) {
  auto s = Parser::ParseSelect("select a from t where a in (1, 2, 3)");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->where->ToString(), "a = 1 OR a = 2 OR a = 3");
}

TEST_F(SqlFeaturesTest, NotIn) {
  auto s = Parser::ParseSelect("select a from t where a not in (1, 2)");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->where->kind, ExprKind::kNot);
}

TEST_F(SqlFeaturesTest, BetweenEvaluates) {
  Table mid = Run(
      "select P from s1::stock T, T.price P where P between 100 and 200");
  Table manual = Run(
      "select P from s1::stock T, T.price P where P >= 100 and P <= 200");
  EXPECT_TRUE(mid.BagEquals(manual));
}

TEST_F(SqlFeaturesTest, InEvaluates) {
  Table in = Run(
      "select C from s1::stock T, T.company C where C in ('coA', 'coC')");
  Table manual = Run(
      "select C from s1::stock T, T.company C "
      "where C = 'coA' or C = 'coC'");
  EXPECT_TRUE(in.BagEquals(manual));
  EXPECT_GT(in.num_rows(), 0u);
}

TEST_F(SqlFeaturesTest, BetweenFeedsTheProver) {
  // Desugared BETWEEN is a conjunction, so the implication prover reasons
  // about it (important for Thm. 5.2 checks against range-filtered views).
  auto s = Parser::ParseSelect(
      "select a from t where a between 100 and 200");
  ASSERT_TRUE(s.ok());
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(s.value()->where.get(), &conjuncts);
  ConditionAnalyzer analyzer(conjuncts);
  auto pred = Parser::ParseSelect("select a from t where a > 50");
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(analyzer.Implies(*pred.value()->where));
  auto pred2 = Parser::ParseSelect("select a from t where a > 150");
  EXPECT_FALSE(analyzer.Implies(*pred2.value()->where));
}

TEST_F(SqlFeaturesTest, OrderByAlias) {
  Table t = Run(
      "select C, max(P) top from s1::stock T, T.company C, T.price P "
      "group by C order by top desc");
  ASSERT_GT(t.num_rows(), 1u);
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_GE(t.row(i - 1)[1].as_int(), t.row(i)[1].as_int());
  }
}

TEST_F(SqlFeaturesTest, OrderByAliasOfExpression) {
  Table t = Run(
      "select P * 2 doubled from s1::stock T, T.price P order by doubled");
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_LE(t.row(i - 1)[0].as_int(), t.row(i)[0].as_int());
  }
}

TEST_F(SqlFeaturesTest, LimitCapsResults) {
  Table t = Run("select P from s1::stock T, T.price P order by P limit 3");
  ASSERT_EQ(t.num_rows(), 3u);
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_LE(t.row(i - 1)[0].as_int(), t.row(i)[0].as_int());
  }
  EXPECT_EQ(Run("select P from s1::stock T, T.price P limit 0").num_rows(), 0u);
  // LIMIT larger than the result is a no-op.
  EXPECT_EQ(Run("select P from s1::stock T, T.price P limit 999").num_rows(),
            24u);
}

TEST_F(SqlFeaturesTest, LimitAppliesAcrossGroundings) {
  // Higher-order query: the limit caps the combined result, not each
  // grounding.
  Catalog cat;
  StockGenConfig cfg;
  cfg.num_companies = 4;
  cfg.num_dates = 5;
  Table s1 = GenerateStockS1(cfg);
  ASSERT_TRUE(InstallStockS2(&cat, "s2", s1).ok());
  QueryEngine engine(&cat, "s2");
  auto r = engine.ExecuteSql("select R, P from s2 -> R, R T, T.price P limit 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 7u);
}

TEST_F(SqlFeaturesTest, LimitPrintsAndReparses) {
  auto s = Parser::ParseSelect("select a from t limit 5");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->limit, 5);
  auto again = Parser::ParseSelect(s.value()->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->limit, 5);
}

TEST_F(SqlFeaturesTest, HasWordSemantics) {
  Catalog cat;
  Table t(Schema::FromNames({"name"}));
  t.AppendRowUnchecked({Value::String("Sofitel Athens")});
  t.AppendRowUnchecked({Value::String("SofitelGrand Paris")});
  t.AppendRowUnchecked({Value::String("Hilton")});
  ASSERT_TRUE(cat.PutTable("d", "h", std::move(t)).ok());
  QueryEngine engine(&cat, "d");
  // HASWORD matches whole words only; CONTAINS matches substrings.
  auto words = engine.ExecuteSql(
      "select N from d::h T, T.name N where hasword(N, 'sofitel')");
  ASSERT_TRUE(words.ok()) << words.status().ToString();
  EXPECT_EQ(words.value().num_rows(), 1u);
  auto sub = engine.ExecuteSql(
      "select N from d::h T, T.name N where contains(N, 'sofitel')");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().num_rows(), 2u);
  // Multi-word patterns are a type error for HASWORD.
  auto multi = engine.ExecuteSql(
      "select N from d::h T, T.name N where hasword(N, 'a b')");
  EXPECT_FALSE(multi.ok());
}

TEST_F(SqlFeaturesTest, OrderByInputColumnStillWins) {
  // A name resolvable in the input is NOT treated as an alias.
  Table t = Run("select C from s1::stock T, T.company C, T.price P "
                "order by P desc");
  EXPECT_EQ(t.num_rows(), 24u);
}

}  // namespace
}  // namespace dynview
