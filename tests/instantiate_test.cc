// Unit tests for SchemaSQL grounding (schemasql/instantiate): the ranges of
// database/relation/attribute variables, label substitution, and the
// relation-variable database inheritance rule.

#include <gtest/gtest.h>

#include "schemasql/instantiate.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

class InstantiateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 2;  // coA, coB.
    cfg.num_dates = 2;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1).ok());
  }

  std::vector<InstantiatedQuery> Ground(const std::string& sql) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    stmt_ = std::move(stmt).value();
    auto bq = Binder::BindBranch(stmt_.get());
    EXPECT_TRUE(bq.ok()) << bq.status().ToString();
    auto r = InstantiateSchemaVars(*stmt_, bq.value(), catalog_, "s1");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Catalog catalog_;
  std::unique_ptr<SelectStmt> stmt_;
};

TEST_F(InstantiateTest, RelationVariableRangesOverDatabase) {
  auto ground = Ground("select R from s2 -> R, R T");
  ASSERT_EQ(ground.size(), 2u);  // coA, coB.
  EXPECT_EQ(ground[0].labels.at("r"), "coA");
  EXPECT_EQ(ground[1].labels.at("r"), "coB");
  // Ground queries are first order and carry the database qualifier.
  for (const auto& iq : ground) {
    EXPECT_FALSE(iq.query->IsHigherOrder());
    bool found = false;
    for (const FromItem& f : iq.query->from_items) {
      if (f.kind == FromItemKind::kTupleVar) {
        EXPECT_EQ(f.db.text, "s2");  // Inherited from the relation variable.
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(InstantiateTest, AttributeVariableRangesOverRelation) {
  auto ground =
      Ground("select A from s3::stock -> A, s3::stock T where A <> 'date'");
  // date + 2 company columns; the label conjunct drops `date` while A is
  // grounded, so only the two company columns remain.
  ASSERT_EQ(ground.size(), 2u);
  EXPECT_EQ(ground[0].labels.at("a"), "coA");
  EXPECT_EQ(ground[1].labels.at("a"), "coB");
}

TEST_F(InstantiateTest, DatabaseVariableRangesOverFederation) {
  auto ground = Ground("select D from -> D, D::stock T");
  // All three databases are enumerated, but only s1 and s3 have `stock`;
  // infeasible groundings are discarded because the reference came through
  // a variable.
  ASSERT_EQ(ground.size(), 2u);
  EXPECT_EQ(ground[0].labels.at("d"), "s1");
  EXPECT_EQ(ground[1].labels.at("d"), "s3");
}

TEST_F(InstantiateTest, NestedVariablesMultiply) {
  auto ground = Ground("select D, R from -> D, D -> R, R T");
  // s1:1 rel + s2:2 rels + s3:1 rel = 4 groundings.
  ASSERT_EQ(ground.size(), 4u);
}

TEST_F(InstantiateTest, ValueReferencesBecomeStringLiterals) {
  auto ground = Ground("select R from s2 -> R, R T");
  const SelectItem& item = ground[0].query->select_list[0];
  ASSERT_EQ(item.expr->kind, ExprKind::kLiteral);
  EXPECT_EQ(item.expr->literal.as_string(), "coA");
  // The output column name survives through the alias.
  EXPECT_EQ(item.alias, "R");
}

TEST_F(InstantiateTest, PredicateReferencesSubstituted) {
  auto ground = Ground("select 1 from s2 -> R, R T where R = 'coB'");
  // The label conjunct restricts R to coB.
  ASSERT_EQ(ground.size(), 1u);
  EXPECT_EQ(ground[0].labels.at("r"), "coB");
  // After substitution the predicate is a constant comparison.
  EXPECT_EQ(ground[0].query->where->left->kind, ExprKind::kLiteral);
}

TEST_F(InstantiateTest, AttributeVariableInColumnRefSubstituted) {
  auto ground = Ground(
      "select T.A from s3::stock -> A, s3::stock T where A <> 'date'");
  for (const auto& iq : ground) {
    const Expr& e = *iq.query->select_list[0].expr;
    ASSERT_EQ(e.kind, ExprKind::kColumnRef);
    EXPECT_FALSE(e.column.is_variable);
  }
}

TEST_F(InstantiateTest, MissingDatabaseYieldsEmptyRange) {
  auto ground = Ground("select R from nosuch -> R, R T");
  EXPECT_TRUE(ground.empty());
}

TEST_F(InstantiateTest, NoSchemaVarsYieldsSingleIdentityGrounding) {
  auto ground = Ground("select P from s1::stock T, T.price P");
  ASSERT_EQ(ground.size(), 1u);
  EXPECT_TRUE(ground[0].labels.empty());
}

}  // namespace
}  // namespace dynview
