// Parser tests, including every SchemaSQL construct the paper uses
// (Figs. 2, 5, 7, 8, 9, 11, 13, 15 and Examples 5.2/5.3).

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace dynview {
namespace {

std::unique_ptr<SelectStmt> ParseSelectOk(const std::string& sql) {
  auto r = Parser::ParseSelect(sql);
  EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(ParserTest, PlainSqlSelect) {
  auto s = ParseSelectOk("select co, price from stock T where T.price > 200");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->select_list.size(), 2u);
  ASSERT_EQ(s->from_items.size(), 1u);
  EXPECT_EQ(s->from_items[0].kind, FromItemKind::kTupleVar);
  EXPECT_EQ(s->from_items[0].rel.text, "stock");
  EXPECT_EQ(s->from_items[0].var, "T");
  ASSERT_NE(s->where, nullptr);
  EXPECT_EQ(s->where->kind, ExprKind::kCompare);
}

TEST(ParserTest, BareRelationGetsSelfAlias) {
  auto s = ParseSelectOk("select hid from hotel");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->from_items[0].var, "hotel");
}

TEST(ParserTest, DatabaseVariable) {
  auto s = ParseSelectOk("select 1 from -> D, D::stock T");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->from_items.size(), 2u);
  EXPECT_EQ(s->from_items[0].kind, FromItemKind::kDatabaseVar);
  EXPECT_EQ(s->from_items[0].var, "D");
  EXPECT_EQ(s->from_items[1].kind, FromItemKind::kTupleVar);
  EXPECT_EQ(s->from_items[1].db.text, "D");
}

TEST(ParserTest, RelationVariableFig2V2) {
  // Fig. 2 view v2 body: select R, T.date, T.price from s2->R, R T
  auto s = ParseSelectOk("select R, T.date, T.price from s2->R, R T");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->from_items.size(), 2u);
  EXPECT_EQ(s->from_items[0].kind, FromItemKind::kRelationVar);
  EXPECT_EQ(s->from_items[0].db.text, "s2");
  EXPECT_EQ(s->from_items[0].var, "R");
  EXPECT_EQ(s->from_items[1].kind, FromItemKind::kTupleVar);
  EXPECT_EQ(s->from_items[1].rel.text, "R");
  EXPECT_EQ(s->from_items[1].var, "T");
  EXPECT_EQ(s->select_list[0].expr->kind, ExprKind::kVarRef);
  EXPECT_EQ(s->select_list[1].expr->kind, ExprKind::kColumnRef);
}

TEST(ParserTest, AttributeVariableFig2V3) {
  // Fig. 2 view v3 body.
  auto s = ParseSelectOk(
      "select A, T.date, T.A from s3::stock->A, s3::stock T where A <> 'date'");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->from_items.size(), 2u);
  EXPECT_EQ(s->from_items[0].kind, FromItemKind::kAttributeVar);
  EXPECT_EQ(s->from_items[0].db.text, "s3");
  EXPECT_EQ(s->from_items[0].rel.text, "stock");
  EXPECT_EQ(s->from_items[0].var, "A");
}

TEST(ParserTest, ExplicitDomainVariablesFig15) {
  // Fig. 15 v2 in explicit notation.
  auto s = ParseSelectOk(
      "select R, D, P from s2->R, R T, T.date D, T.price P");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->from_items.size(), 4u);
  EXPECT_EQ(s->from_items[2].kind, FromItemKind::kDomainVar);
  EXPECT_EQ(s->from_items[2].tuple, "T");
  EXPECT_EQ(s->from_items[2].attr.text, "date");
  EXPECT_EQ(s->from_items[2].var, "D");
}

TEST(ParserTest, CreateViewWithDynamicRelationNameFig5V4) {
  auto r = Parser::ParseCreateView(
      "create view s2::C(date, price) as "
      "select D, P from s1::stock T, T.company C, T.date D, T.price P");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CreateViewStmt& v = *r.value();
  EXPECT_EQ(v.db.text, "s2");
  EXPECT_EQ(v.name.text, "C");
  ASSERT_EQ(v.attrs.size(), 2u);
  EXPECT_EQ(v.attrs[0].text, "date");
  EXPECT_EQ(v.attrs[1].text, "price");
  ASSERT_NE(v.query, nullptr);
  EXPECT_EQ(v.query->from_items.size(), 4u);
}

TEST(ParserTest, CreateViewWithDynamicAttributeFig5V5) {
  auto r = Parser::ParseCreateView(
      "create view s3::stock(date, C) as "
      "select D, P from s1::stock T, T.company C, T.date D, T.price P");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->attrs[1].text, "C");
}

TEST(ParserTest, CreateViewAggregateFig5V6) {
  auto r = Parser::ParseCreateView(
      "create view A::avgview(date, avgprice) as "
      "select D, avg(P) from s3::stock T, s2::stock-> A, T.A P, T.date D "
      "where A <> 'date' group by A, D");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CreateViewStmt& v = *r.value();
  EXPECT_EQ(v.db.text, "A");
  EXPECT_EQ(v.query->group_by.size(), 2u);
  EXPECT_TRUE(v.query->select_list[1].expr->ContainsAggregate());
}

TEST(ParserTest, UnionChainFig2V1) {
  auto s = ParseSelectOk(
      "select 'coA' co, date, price from coA union "
      "select 'coB', date, price from coB union "
      "select 'coC', date, price from coC");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->union_next, nullptr);
  ASSERT_NE(s->union_next->union_next, nullptr);
  EXPECT_FALSE(s->union_all);
  EXPECT_EQ(s->select_list[0].alias, "co");
}

TEST(ParserTest, UnionAll) {
  auto s = ParseSelectOk("select a from t union all select a from u");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->union_all);
}

TEST(ParserTest, GroupByHavingExample52) {
  auto s = ParseSelectOk(
      "select D, max(P) from db0::stock T, T.date D, T.price P, T.exch E "
      "where E = 'nyse' group by D having min(P) > 100");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->group_by.size(), 1u);
  ASSERT_NE(s->having, nullptr);
  EXPECT_TRUE(s->having->ContainsAggregate());
}

TEST(ParserTest, CreateIndexBtreeFig8) {
  auto r = Parser::ParseCreateIndex(
      "create index ticketInfr as btree by given T.infr "
      "select T.state, T.tnum, T.lic from tickets T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->name, "ticketInfr");
  EXPECT_EQ(r.value()->method, IndexMethod::kBtree);
  ASSERT_EQ(r.value()->given.size(), 1u);
  EXPECT_EQ(r.value()->given[0]->kind, ExprKind::kColumnRef);
}

TEST(ParserTest, CreateIndexInvertedFig9) {
  auto r = Parser::ParseCreateIndex(
      "create index keywords as inverted by given value "
      "select T.hid, T.attribute from hotelwords T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->method, IndexMethod::kInverted);
}

TEST(ParserTest, DateLiteralComparison) {
  auto s = ParseSelectOk(
      "select C1 from db0::stock T1, T1.date D1, T1.company C1 "
      "where D1 > DATE '1998-01-01' and D1 = D1 + 1");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->where->kind, ExprKind::kLogic);
}

TEST(ParserTest, OperatorPrecedence) {
  auto s = ParseSelectOk("select a from t where a = 1 or b = 2 and c = 3");
  ASSERT_NE(s, nullptr);
  // OR is the top-level node (AND binds tighter).
  EXPECT_EQ(s->where->op, BinaryOp::kOr);
  EXPECT_EQ(s->where->right->op, BinaryOp::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto s = ParseSelectOk("select a + b * c from t");
  ASSERT_NE(s, nullptr);
  const Expr& e = *s->select_list[0].expr;
  EXPECT_EQ(e.op, BinaryOp::kAdd);
  EXPECT_EQ(e.right->op, BinaryOp::kMul);
}

TEST(ParserTest, LikeAndContainsAndIsNull) {
  auto s = ParseSelectOk(
      "select a from t where a like '%sofitel%' and contains(b, 'athens') "
      "and c is not null");
  ASSERT_NE(s, nullptr);
}

TEST(ParserTest, OrderBy) {
  auto s = ParseSelectOk("select a, b from t order by a desc, b");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->order_by.size(), 2u);
  EXPECT_TRUE(s->order_by[0].descending);
  EXPECT_FALSE(s->order_by[1].descending);
}

TEST(ParserTest, SelectStar) {
  auto s = ParseSelectOk("select * from t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->select_list[0].expr->kind, ExprKind::kStar);
}

TEST(ParserTest, CountStarAndDistinctAgg) {
  auto s = ParseSelectOk("select count(*), count(distinct a) from t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->select_list[0].expr->agg_func, AggFunc::kCountStar);
  EXPECT_TRUE(s->select_list[1].expr->agg_distinct);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parser::ParseSelect("select from t").ok());
  EXPECT_FALSE(Parser::ParseSelect("select a").ok());
  EXPECT_FALSE(Parser::ParseSelect("select a from t where").ok());
  EXPECT_FALSE(Parser::ParseSelect("select a from t extra junk ,").ok());
  EXPECT_FALSE(Parser::Parse("create table t (a)").ok());
  EXPECT_FALSE(Parser::ParseCreateView("create view v as select 1 from t").ok());
}

TEST(ParserTest, RoundTripToString) {
  // ToString output must re-parse to an identical rendering (printer and
  // parser agree) — essential for emitting Alg. 5.1 rewritings.
  const std::string sql =
      "SELECT R, D, P FROM s2 -> R, R T, T.date D, T.price P WHERE P > 200";
  auto s1 = ParseSelectOk(sql);
  ASSERT_NE(s1, nullptr);
  auto s2 = ParseSelectOk(s1->ToString());
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s1->ToString(), s2->ToString());
}

TEST(ParserTest, ArithmeticRenderingKeepsGrouping) {
  // Distinct trees must render distinctly and re-parse to themselves: the
  // plan cache and the compiled-program memo key on the rendering.
  const char* kCases[][2] = {
      {"(T.a + 1) * 2", "(T.a + 1) * 2"}, {"T.a + 1 * 2", "T.a + 1 * 2"},
      {"T.a - (1 - 2)", "T.a - (1 - 2)"}, {"T.a - 1 - 2", "T.a - 1 - 2"},
      {"T.a / (2 * 3)", "T.a / (2 * 3)"}, {"T.a * 2 / 3", "T.a * 2 / 3"},
      {"-(T.a + 1)", "0 - (T.a + 1)"},
  };
  for (const auto& [in, rendered] : kCases) {
    auto s1 = ParseSelectOk(std::string("select ") + in + " from db::t T");
    ASSERT_NE(s1, nullptr);
    EXPECT_EQ(s1->select_list[0].expr->ToString(), rendered) << in;
    auto s2 = ParseSelectOk(s1->ToString());
    ASSERT_NE(s2, nullptr);
    EXPECT_EQ(s2->ToString(), s1->ToString()) << in;
  }
}

TEST(ParserTest, CloneIsDeep) {
  auto s = ParseSelectOk(
      "select D, max(P) from db0::stock T, T.date D, T.price P group by D");
  ASSERT_NE(s, nullptr);
  auto c = s->Clone();
  EXPECT_EQ(s->ToString(), c->ToString());
  c->select_list[0].alias = "changed";
  EXPECT_NE(s->ToString(), c->ToString());
}

// ---- input bounds -----------------------------------------------------------
//
// Inputs that once overflowed the stack in a later recursive pass (each well
// under the server's 8 MiB frame limit) must fail cleanly in the parser, with
// the offending token named.

std::string Repeat(const std::string& piece, int n, const std::string& sep) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += sep;
    out += piece;
  }
  return out;
}

std::string Nested(int levels) {
  return std::string(levels, '(') + "1 = 1" + std::string(levels, ')');
}

void ExpectBoundError(const std::string& sql, const std::string& what) {
  auto r = Parser::ParseSelect(sql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(what), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("at offset"), std::string::npos)
      << r.status().ToString();
}

std::string Where(const std::string& condition) {
  return "select T.a from db::t T where " + condition;
}

TEST(ParserBoundsTest, DeepParenthesesRejected) {
  ExpectBoundError(Where(Nested(5000)), "nesting exceeds 256 levels");
}

TEST(ParserBoundsTest, LongAndChainRejected) {
  ExpectBoundError(Where(Repeat("1=1", 50000, " and ")),
                   "nesting exceeds 256 levels");
}

TEST(ParserBoundsTest, LongUnionChainRejected) {
  ExpectBoundError(Repeat("select T.a from db::t T", 20000, " union all "),
                   "UNION chain exceeds 500 branches");
}

TEST(ParserBoundsTest, NotChainRejected) {
  ExpectBoundError(Where(Repeat("not", 5000, " ") + " 1 = 1"),
                   "nesting exceeds 256 levels");
}

TEST(ParserBoundsTest, UnaryMinusAndAggregateNestingRejected) {
  // Space-separated: `--` would open a comment.
  ExpectBoundError(Where("T.a = " + Repeat("-", 5000, " ") + " 1"),
                   "nesting exceeds 256 levels");
  ExpectBoundError("select " + Repeat("max(", 5000, "") + "T.a" +
                       std::string(5000, ')') + " from db::t T",
                   "nesting exceeds 256 levels");
}

TEST(ParserBoundsTest, InputsAtTheBoundParse) {
  // 256 levels of parentheses parse; one more is over.
  EXPECT_TRUE(Parser::ParseSelect(Where(Nested(256))).ok());
  ExpectBoundError(Where(Nested(257)), "nesting exceeds 256 levels");
  // 255 comparisons: a left-deep AND chain of height 256; one more is over.
  EXPECT_TRUE(Parser::ParseSelect(Where(Repeat("1=1", 255, " and "))).ok());
  ExpectBoundError(Where(Repeat("1=1", 256, " and ")),
                   "nesting exceeds 256 levels");
  EXPECT_TRUE(
      Parser::ParseSelect(Repeat("select T.a from db::t T", 500, " union all "))
          .ok());
  ExpectBoundError(Repeat("select T.a from db::t T", 501, " union all "),
                   "UNION chain exceeds 500 branches");
}

TEST(ParserBoundsTest, OutOfRangeNumbersRejected) {
  auto big = Parser::ParseSelect(
      "select T.a from db::t T where T.a > 99999999999999999999");
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  auto limit = Parser::ParseSelect(
      "select T.a from db::t T limit 99999999999999999999");
  EXPECT_EQ(limit.status().code(), StatusCode::kParseError);
  auto max = Parser::ParseSelect(
      "select T.a from db::t T where T.a > 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
}

}  // namespace
}  // namespace dynview
