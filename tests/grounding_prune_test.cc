// Range restriction by WHERE label conjuncts (schemasql/instantiate): every
// answer must be byte-identical to a reference that grounds WITHOUT the
// restriction — the bag union, in declaration order, of SubstituteLabels +
// QueryEngine::EvaluateBranch over the full enumeration — at num_threads 1
// and at the default. Errors must match too. The contract tests pin what
// "a dropped grounding is not a source" means under kSkipAndReport.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "common/str_util.h"
#include "engine/query_engine.h"
#include "observe/observer.h"
#include "schemasql/instantiate.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

/// The unrestricted grounding enumeration, written out independently of
/// InstantiateSchemaVars: FROM-order ranges, then the kNotFound filter on
/// variable-derived tuple references.
std::vector<Grounding> AllGroundings(const SelectStmt& stmt,
                                     const CatalogReader& catalog,
                                     const std::string& default_db) {
  std::vector<Grounding> gs(1);
  for (const FromItem& f : stmt.from_items) {
    if (f.kind == FromItemKind::kTupleVar ||
        f.kind == FromItemKind::kDomainVar) {
      continue;
    }
    const std::string var = ToLower(f.var);
    std::vector<Grounding> next;
    for (const Grounding& g : gs) {
      auto label = [&](const NameTerm& t, const std::string& fallback) {
        if (t.empty()) return fallback;
        return t.is_variable ? g.labels.at(ToLower(t.text)) : t.text;
      };
      std::vector<std::string> range;
      if (f.kind == FromItemKind::kDatabaseVar) {
        range = catalog.DatabaseNames();
      } else if (f.kind == FromItemKind::kRelationVar) {
        auto db = catalog.GetDatabase(label(f.db, default_db));
        if (db.ok()) range = db.value()->TableNames();
      } else {
        auto t = catalog.ResolveTable(label(f.db, default_db),
                                      label(f.rel, ""));
        if (t.ok()) range = t.value()->schema().ColumnNames();
      }
      for (const std::string& r : range) {
        Grounding ng = g;
        ng.labels[var] = r;
        if (f.kind == FromItemKind::kRelationVar) {
          ng.relvar_db[var] = label(f.db, default_db);
        }
        next.push_back(std::move(ng));
      }
    }
    gs = std::move(next);
  }
  std::vector<Grounding> feasible;
  for (Grounding& g : gs) {
    bool ok = true;
    for (const FromItem& f : stmt.from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      if (!f.db.is_variable && !f.rel.is_variable) continue;
      std::string db = default_db;
      if (!f.db.empty()) {
        db = f.db.is_variable ? g.labels.at(ToLower(f.db.text)) : f.db.text;
      } else if (f.rel.is_variable) {
        db = g.relvar_db.at(ToLower(f.rel.text));
      }
      const std::string rel =
          f.rel.is_variable ? g.labels.at(ToLower(f.rel.text)) : f.rel.text;
      auto t = catalog.ResolveTable(db, rel);
      if (!t.ok() && t.status().code() == StatusCode::kNotFound) ok = false;
    }
    if (ok) feasible.push_back(std::move(g));
  }
  return feasible;
}

class GroundingPruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    StockGenConfig cfg;
    cfg.num_companies = 3;  // coA, coB, coC.
    cfg.num_dates = 4;
    cfg.prices_per_day = 2;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  /// One branch, unrestricted: each grounding's first-order query is
  /// re-bound and evaluated on its own, and the results are appended in
  /// declaration order; the first error in that order is the answer.
  Result<Table> ReferenceBranch(SelectStmt* branch) {
    QueryEngine engine(&catalog_, "s1", Serial());
    DV_ASSIGN_OR_RETURN(BoundQuery bq, Binder::BindBranch(branch));
    if (!bq.higher_order) return engine.EvaluateBranch(*branch, bq);
    std::vector<Grounding> gs = AllGroundings(*branch, catalog_, "s1");
    EXPECT_FALSE(gs.empty()) << "cases keep at least one grounding";
    Table acc;
    for (size_t i = 0; i < gs.size(); ++i) {
      std::unique_ptr<SelectStmt> q = SubstituteLabels(*branch, bq, gs[i]);
      DV_ASSIGN_OR_RETURN(BoundQuery qbq, Binder::BindBranch(q.get()));
      DV_ASSIGN_OR_RETURN(Table t, engine.EvaluateBranch(*q, qbq));
      if (i == 0) {
        acc = std::move(t);
      } else {
        DV_RETURN_IF_ERROR(acc.AppendTable(std::move(t)));
      }
    }
    if (branch->limit >= 0) acc.Truncate(static_cast<size_t>(branch->limit));
    return acc;
  }

  /// A UNION chain of branches, combined as the engine combines them.
  Result<Table> Reference(const std::string& sql) {
    DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                        Parser::ParseSelect(sql));
    Table acc;
    bool first = true;
    bool pending_all = false;
    for (SelectStmt* b = stmt.get(); b != nullptr; b = b->union_next.get()) {
      DV_ASSIGN_OR_RETURN(Table t, ReferenceBranch(b));
      if (first) {
        acc = std::move(t);
        first = false;
      } else {
        DV_RETURN_IF_ERROR(acc.AppendTable(std::move(t)));
        if (!pending_all) acc = acc.Distinct();
      }
      pending_all = b->union_all;
    }
    return acc;
  }

  /// The global (DISTINCT / ORDER BY / aggregate) path: the unrestricted
  /// union of `inner_sql` stored as ref::u, then `outer_sql` over it.
  Result<Table> GlobalReference(const std::string& inner_sql,
                                const std::string& outer_sql) {
    DV_ASSIGN_OR_RETURN(Table rows, Reference(inner_sql));
    Catalog scratch;
    DV_RETURN_IF_ERROR(scratch.PutTable("ref", "u", std::move(rows)));
    QueryEngine outer(&scratch, "ref", Serial());
    return outer.ExecuteSql(outer_sql);
  }

  static ExecConfig Serial() {
    ExecConfig exec;
    exec.num_threads = 1;
    return exec;
  }

  /// The engine's answer (restricted) at num_threads 1 and the default.
  void ExpectSameAs(const std::string& sql, const Result<Table>& expected) {
    for (size_t threads : {size_t{1}, size_t{0}}) {
      ExecConfig exec;
      exec.num_threads = threads;
      exec.morsel_rows = 4;
      QueryEngine engine(&catalog_, "s1", exec);
      Result<Table> got = engine.ExecuteSql(sql);
      ASSERT_EQ(got.ok(), expected.ok())
          << sql << " threads=" << threads << ": "
          << (got.ok() ? expected.status() : got.status()).ToString();
      if (!got.ok()) {
        EXPECT_EQ(got.status().ToString(), expected.status().ToString())
            << sql;
        continue;
      }
      EXPECT_EQ(got.value().ToString(), expected.value().ToString())
          << sql << " threads=" << threads;
    }
  }

  void ExpectMatchesReference(const std::string& sql) {
    ExpectSameAs(sql, Reference(sql));
  }

  /// groundings.* counters of one serial run.
  GroundingCounts CountsOf(const std::string& sql, uint64_t* evaluated) {
    QueryEngine engine(&catalog_, "s1", Serial());
    QueryObserver obs;
    QueryContext qc;
    qc.set_observer(&obs);
    EXPECT_TRUE(engine.ExecuteSql(sql, &qc).ok()) << sql;
    *evaluated = obs.metrics.Value(counters::kGroundingsEvaluated);
    return GroundingCounts{
        obs.metrics.Value(counters::kGroundingsEnumerated),
        obs.metrics.Value(counters::kGroundingsPrunedNotFound),
        obs.metrics.Value(counters::kGroundingsPrunedPredicate)};
  }

  Catalog catalog_;
};

constexpr char kRel[] = "select R, D, P from s2 -> R, R T, T.date D, "
                        "T.price P where ";

TEST_F(GroundingPruneTest, LabelComparisonsMatchTheReference) {
  for (const char* where :
       {"R = 'coB'", "'coB' = R", "R <> 'coB'", "R IN ('coA', 'coC')",
        "R = 'coA' OR R = 'coC'", "R = 'coB' AND P > 50",
        "P > 50 AND R <> 'coA'", "R LIKE 'co%'", "NOT (R = 'coA')"}) {
    ExpectMatchesReference(std::string(kRel) + where);
  }
}

TEST_F(GroundingPruneTest, AbsentLabelKeepsTheEmptyResultSchema) {
  ExpectMatchesReference(std::string(kRel) + "R = 'absent'");
  // SELECT * takes its columns from a grounding: the first one is kept.
  ExpectMatchesReference("select * from s2 -> R, R T where R = 'absent'");
  QueryEngine engine(&catalog_, "s1", Serial());
  auto star = engine.ExecuteSql("select * from s2 -> R, R T where R = 'x'");
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  EXPECT_EQ(star.value().num_rows(), 0u);
  EXPECT_GT(star.value().schema().num_columns(), 0u);
}

TEST_F(GroundingPruneTest, ErrorsAndNullComparisonsMatchTheReference) {
  // R = 5 compares a label with an integer: the same TypeError either way.
  const std::string type_error = std::string(kRel) + "R = 5";
  Result<Table> ref = Reference(type_error);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kTypeError);
  ExpectSameAs(type_error, ref);
  ExpectMatchesReference(std::string(kRel) + "R = 5 AND R = 'coB'");
  ExpectMatchesReference(std::string(kRel) + "R = 'coB' AND R = 5");
  // Unknown drops a grounding exactly as False does.
  ExpectMatchesReference(std::string(kRel) + "R = NULL");
  ExpectMatchesReference(std::string(kRel) + "R <> NULL OR R = 'coC'");
  ExpectMatchesReference(std::string(kRel) + "R IS NOT NULL");
}

TEST_F(GroundingPruneTest, DatabaseAndRelationVariablesPruneAtEachLevel) {
  // Every relation of the federation has a date column, so the
  // unrestricted reference evaluates cleanly.
  const std::string base = "select D, R, X from -> D, D -> R, R T, "
                           "T.date X where ";
  for (const char* where :
       {"D = 's2'", "R = 'coB'", "D = 's2' AND R = 'coB'",
        "D <> 's1' AND R <> 'stock'", "D = 's2' OR R = 'stock'",
        "D = 's9'"}) {
    ExpectMatchesReference(base + where);
  }
  uint64_t evaluated = 0;
  // D = 's2' drops s1 and s3 before their relations are enumerated: the
  // enumeration counts those two prefixes once each.
  GroundingCounts c = CountsOf(base + "D = 's2' AND R = 'coB'", &evaluated);
  EXPECT_EQ(evaluated, 1u);
  EXPECT_EQ(c.pruned_predicate, 4u);  // s1, s3, then s2's coA and coC.
  EXPECT_EQ(c.enumerated,
            c.pruned_notfound + c.pruned_predicate + evaluated);
}

TEST_F(GroundingPruneTest, AttributeVariablePrunes) {
  ExpectMatchesReference(
      "select A, V from s1::stock -> A, s1::stock T, T.A V "
      "where A = 'price'");
  ExpectMatchesReference(
      "select A, V from s3::stock -> A, s3::stock T, T.A V "
      "where A <> 'date' AND V > 60");
  uint64_t evaluated = 0;
  GroundingCounts c = CountsOf(
      "select A, V from s1::stock -> A, s1::stock T, T.A V "
      "where A = 'price'",
      &evaluated);
  EXPECT_EQ(evaluated, 1u);
  EXPECT_EQ(c.enumerated, c.pruned_predicate + evaluated);
}

TEST_F(GroundingPruneTest, GlobalPathMatchesTheReference) {
  ExpectSameAs(
      "select distinct R, D from s2 -> R, R T, T.date D "
      "where R <> 'coB' order by D desc, R",
      GlobalReference("select R, D from s2 -> R, R T, T.date D "
                      "where R <> 'coB'",
                      "select distinct R, D from u T, T.R R, T.D D "
                      "order by D desc, R"));
  ExpectSameAs(
      "select R, max(P) from s2 -> R, R T, T.price P "
      "where R IN ('coA', 'coC') group by R",
      GlobalReference("select R, P from s2 -> R, R T, T.price P "
                      "where R IN ('coA', 'coC')",
                      "select R, max(P) from u T, T.R R, T.P P group by R"));
  ExpectSameAs(
      "select count(*) from s2 -> R, R T where R = 'absent'",
      GlobalReference("select 1 as one from s2 -> R, R T where R = 'absent'",
                      "select count(*) from u T"));
}

TEST_F(GroundingPruneTest, UnionBranchesAndLimitMatchTheReference) {
  ExpectMatchesReference(
      "select R, P from s2 -> R, R T, T.price P where R = 'coA' "
      "union all select R, P from s2 -> R, R T, T.price P where R = 'coC'");
  ExpectMatchesReference(
      "select R, D from s2 -> R, R T, T.date D where R <> 'coA' "
      "union select R, D from s2 -> R, R T, T.date D where R = 'absent'");
  ExpectMatchesReference(std::string(kRel) + "R <> 'coA' limit 3");
  ExpectMatchesReference(std::string(kRel) + "R = 'coC' limit 2");
}

TEST_F(GroundingPruneTest, ExcludedGroundingRaisesNoError) {
  // s3::stock has no price column: evaluating that grounding is a
  // BindError. D = 's2' excludes it before it is resolved, so the
  // restricted query answers from s2 alone.
  const std::string all =
      "select D, R, P from -> D, D -> R, R T, T.price P";
  Result<Table> unrestricted = Reference(all + " where D = 's2'");
  ASSERT_FALSE(unrestricted.ok());
  EXPECT_EQ(unrestricted.status().code(), StatusCode::kBindError);
  QueryEngine engine(&catalog_, "s1", Serial());
  Result<Table> got = engine.ExecuteSql(all + " where D = 's2'");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> s2_only =
      Reference("select 's2' as D, R, P from s2 -> R, R T, T.price P");
  ASSERT_TRUE(s2_only.ok()) << s2_only.status().ToString();
  EXPECT_EQ(got.value().ToString(), s2_only.value().ToString());
  EXPECT_EQ(engine.ExecuteSql(all).status().code(), StatusCode::kBindError);
}

TEST_F(GroundingPruneTest, ExcludedGroundingIsNotASource) {
  // Under kSkipAndReport a failing included grounding is skipped with a
  // warning; a failing excluded one is never checked, so it neither fails
  // nor warns.
  const std::string sql = std::string(kRel) + "R = 'coB'";
  Result<Table> ref = Reference(sql);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_GT(ref.value().num_rows(), 0u);
  for (const char* failing : {"coa", "cob"}) {
    FailSpec down;
    down.mode = FailMode::kErrorAlways;
    down.match = failing;
    FailPoints::Arm("engine.grounding", down);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ExecConfig exec;
      exec.num_threads = threads;
      QueryEngine engine(&catalog_, "s1", exec);
      QueryGuards g;
      g.source_policy = SourcePolicy::kSkipAndReport;
      QueryContext qc(g);
      Result<Table> got = engine.ExecuteSql(sql, &qc);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<SourceWarning> warnings = qc.warnings();
      if (std::string(failing) == "coa") {
        EXPECT_TRUE(warnings.empty()) << warnings[0].source;
        EXPECT_EQ(got.value().ToString(), ref.value().ToString());
      } else {
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].source, "coB");
        EXPECT_EQ(warnings[0].status.code(), StatusCode::kUnavailable);
        EXPECT_EQ(got.value().num_rows(), 0u);
      }
    }
    FailPoints::DisarmAll();
  }
}

}  // namespace
}  // namespace dynview
