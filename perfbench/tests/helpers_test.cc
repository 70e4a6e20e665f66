// Tests of the benchmark's own helpers: percentiles (with the "at least ten
// samples beyond" tail rule), failed-operation accounting and the reply
// oracle. The quartiles of the steadiness report come from Python's
// statistics.quantiles; tests/steadiness_test.py covers them.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.5), 1);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile(OneTo(5), 50), 3);
  EXPECT_EQ(Percentile(OneTo(4), 50), 2);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyond) {
  EXPECT_FALSE(TailPercentile(OneTo(10)).has_value());
  auto t11 = TailPercentile(OneTo(11));
  ASSERT_TRUE(t11.has_value());
  EXPECT_EQ(t11->value, 1);
  EXPECT_NEAR(t11->percentile, 100.0 / 11, 1e-9);
  auto t1000 = TailPercentile(OneTo(1000));
  ASSERT_TRUE(t1000.has_value());
  EXPECT_EQ(t1000->value, 990);
  EXPECT_DOUBLE_EQ(t1000->percentile, 99.0);
  // Exactly ten samples lie beyond the reported value.
  std::vector<double> v = OneTo(537);
  auto t = TailPercentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > t->value; }),
            10);
}

TEST(OpTallyTest, CountsEveryFailureKindAgainstAttempts) {
  OpTally t;
  t.Record(ClassifyRead(true, true, false, true));    // ok
  t.Record(ClassifyRead(true, true, false, true));    // ok
  t.Record(ClassifyRead(false, false, false, false)); // transport
  t.Record(ClassifyRead(true, false, true, false));   // shed
  t.Record(ClassifyRead(true, false, false, false));  // error
  t.Record(ClassifyRead(true, true, false, false));   // wrong answer
  t.Record(Outcome::kCommitFailed);
  EXPECT_EQ(t.attempted(), 7u);
  EXPECT_EQ(t.ok(), 2u);
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_EQ(t.count(Outcome::kTransport), 1u);
  EXPECT_EQ(t.count(Outcome::kShed), 1u);
  EXPECT_EQ(t.count(Outcome::kError), 1u);
  EXPECT_EQ(t.count(Outcome::kWrongAnswer), 1u);
  EXPECT_EQ(t.count(Outcome::kCommitFailed), 1u);
  OpTally u;
  u.Record(Outcome::kOk);
  t.Merge(u);
  EXPECT_EQ(t.attempted(), 8u);
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_EQ(t.Describe(),
            "5 of 8 (shed 1, error 1, transport 1, wrong 1, commit 1)");
}

TEST(OracleTest, DatesAndNames) {
  EXPECT_EQ(DateString(0), "1998-01-01");
  EXPECT_EQ(DateString(31), "1998-02-01");
  EXPECT_EQ(DateString(365), "1999-01-01");
  EXPECT_EQ(DateString(365 + 365 + 59), "2000-02-29");  // Leap day.
  EXPECT_EQ(CompanyName(7), "co007");
}

/// Renders the rows `q` selects the way a typed-CSV reply does, in reverse
/// order so the check must ignore order.
std::string RenderReply(const Dataset& ds, const QuerySpec& q) {
  std::vector<std::string> lines;
  for (size_t c = 0; c < ds.rows.size(); ++c) {
    if (q.company >= 0 && static_cast<int>(c) != q.company) continue;
    for (const StockRow& r : ds.rows[c]) {
      if (q.Matches(r)) lines.push_back(RowCsvLine(ds.names[c], r));
    }
  }
  std::string csv = "R,D,P\n";
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) csv += *it;
  return csv;
}

TEST(OracleTest, AcceptsCorrectReplyInAnyOrder) {
  Dataset ds = Dataset::Generate(3, 4, 50);
  QuerySpec q;
  q.price_lo = 400;
  RowDigest want = ExpectedDigest(ds, q);
  ASSERT_GT(want.count, 10u);
  EXPECT_TRUE(ReplyMatches(RenderReply(ds, q), want));

  QuerySpec point;
  point.company = 2;
  point.day_lo = 10;
  point.day_hi = 30;
  EXPECT_TRUE(ReplyMatches(RenderReply(ds, point), ExpectedDigest(ds, point)));
  EXPECT_EQ(ExpectedDigest(ds, point).count, 20u);
}

TEST(OracleTest, RejectsAlteredReplies) {
  Dataset ds = Dataset::Generate(5, 4, 50);
  QuerySpec q;
  q.price_lo = 300;
  const RowDigest want = ExpectedDigest(ds, q);
  const std::string good = RenderReply(ds, q);
  ASSERT_TRUE(ReplyMatches(good, want));

  // One price changed by one.
  std::string altered = good;
  size_t line_end = altered.find('\n', altered.find('\n') + 1);
  char& last_digit = altered[line_end - 1];
  last_digit = last_digit == '9' ? '8' : static_cast<char>(last_digit + 1);
  EXPECT_FALSE(ReplyMatches(altered, want));

  // A row dropped, a row duplicated, a company renamed, a malformed row.
  size_t first_row = good.find('\n') + 1;
  size_t second_row = good.find('\n', first_row) + 1;
  std::string row = good.substr(first_row, second_row - first_row);
  EXPECT_FALSE(ReplyMatches(good.substr(0, first_row) + good.substr(second_row),
                            want));
  EXPECT_FALSE(ReplyMatches(good + row, want));
  std::string renamed = good;
  renamed.replace(renamed.find("co0"), 3, "cX0");
  EXPECT_FALSE(ReplyMatches(renamed, want));
  EXPECT_FALSE(ReplyMatches(good + "\"co001\",1998-01-01\n", want));
  // The same values with the company unquoted: not the typed-CSV rendering.
  std::string unquoted = good.substr(0, first_row) + row.substr(1);
  unquoted.erase(unquoted.find('"', first_row), 1);
  EXPECT_FALSE(ReplyMatches(unquoted + good.substr(second_row), want));
  EXPECT_FALSE(ReplyMatches("", want));
}

}  // namespace
}  // namespace perfbench
