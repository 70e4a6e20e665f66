// Determinism of parallel execution: every workload query must produce a
// bag-identical result under `ExecConfig{num_threads = 1}` (fully serial,
// the pre-parallel engine) and under 2/4/8 threads with a tiny morsel
// threshold (so the morsel-driven operators, the grounding fan-out and the
// partitioned hash join all actually engage on test-sized data). Also unit
// tests for the ThreadPool and the zero-copy Table append/truncate paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/query_engine.h"
#include "relational/catalog.h"
#include "schemasql/view_materializer.h"
#include "workload/hotel_data.h"
#include "workload/stock_data.h"
#include "workload/tickets_data.h"

namespace dynview {
namespace {

ExecConfig ParallelConfig(size_t threads) {
  ExecConfig exec;
  exec.num_threads = threads;
  exec.morsel_rows = 4;  // Force the parallel operator paths on small data.
  return exec;
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig stock;
    stock.num_companies = 5;
    stock.num_dates = 8;
    Table s1 = GenerateStockS1(stock);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1).ok());
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", stock).ok());
    HotelGenConfig hotel;
    hotel.num_hotels = 20;
    ASSERT_TRUE(InstallHotelDatabase(&catalog_, "web", hotel).ok());
    ASSERT_TRUE(InstallHprice(&catalog_, "web").ok());
    TicketsGenConfig tickets;
    tickets.num_jurisdictions = 5;
    tickets.tickets_per_jurisdiction = 30;
    ASSERT_TRUE(InstallTicketJurisdictions(&catalog_, "tix", tickets).ok());
  }

  /// Runs `sql` serially and at 2/4/8 threads; every parallel result must be
  /// bag-equal to the serial one.
  void ExpectDeterministic(const std::string& sql,
                           const std::string& default_db = "s1") {
    QueryEngine serial(&catalog_, default_db, ParallelConfig(1));
    Result<Table> base = serial.ExecuteSql(sql);
    ASSERT_TRUE(base.ok()) << sql << "\n  -> " << base.status().ToString();
    for (size_t threads : {2u, 4u, 8u}) {
      QueryEngine par(&catalog_, default_db, ParallelConfig(threads));
      Result<Table> got = par.ExecuteSql(sql);
      ASSERT_TRUE(got.ok()) << sql << " [threads=" << threads << "]\n  -> "
                            << got.status().ToString();
      EXPECT_TRUE(base.value().BagEquals(got.value()))
          << sql << " diverges at threads=" << threads << ": serial "
          << base.value().num_rows() << " rows, parallel "
          << got.value().num_rows() << " rows";
    }
  }

  Catalog catalog_;
};

TEST_F(ParallelEngineTest, RelationVariableFanOut) {
  ExpectDeterministic("select R, D, P from s2 -> R, R T, T.date D, T.price P");
}

TEST_F(ParallelEngineTest, AttributeVariableFanOut) {
  ExpectDeterministic(
      "select A, D, P from s3::stock -> A, s3::stock T, T.date D, T.A P "
      "where A <> 'date'");
}

TEST_F(ParallelEngineTest, DatabaseVariableFanOut) {
  ExpectDeterministic("select DB from -> DB, DB::stock T");
}

TEST_F(ParallelEngineTest, ZeroGroundings) {
  ExpectDeterministic("select R, D from nosuchdb -> R, R T, T.date D");
}

TEST_F(ParallelEngineTest, GlobalAggregationAcrossGroundings) {
  // max/group-by range across every grounding: the two-layer
  // EvaluateHigherOrderGlobal path.
  ExpectDeterministic(
      "select D, max(P) from s3::stock T, T.date D, s3::stock -> A, T.A P "
      "where A <> 'date' group by D");
}

TEST_F(ParallelEngineTest, GlobalAggregateNoGroupBy) {
  ExpectDeterministic(
      "select count(*), min(P) from s2 -> R, R T, T.price P where P > 100");
}

TEST_F(ParallelEngineTest, GlobalDistinctAndOrderBy) {
  ExpectDeterministic(
      "select distinct R from s2 -> R, R T, T.price P where P > 100 "
      "order by R");
}

TEST_F(ParallelEngineTest, FirstOrderJoinFilterOrderLimit) {
  ExpectDeterministic(
      "select T1.company, T1.date, T1.price from db0::stock T1, "
      "db0::cotype T2 where T1.company = T2.co and T2.type = 'hitech' "
      "and T1.price > 120 order by T1.price desc limit 17",
      "db0");
}

TEST_F(ParallelEngineTest, UnionOfHigherOrderBranches) {
  ExpectDeterministic(
      "select D from s2 -> R, R T, T.date D where R = 'coA' "
      "union all select D from s2 -> R, R T, T.date D where R = 'coB'");
}

TEST_F(ParallelEngineTest, HotelInterfaceSchemaJoin) {
  ExpectDeterministic(
      "select H.name, P.rmtype, P.price from web::hotel H, web::hprice P "
      "where H.hid = P.hid and P.price < 150",
      "web");
}

TEST_F(ParallelEngineTest, TicketsJurisdictionFanOut) {
  ExpectDeterministic(
      "select J, L, I from tix -> J, J T, T.lic L, T.infr I "
      "where I = 'dui'");
}

TEST_F(ParallelEngineTest, ParallelResultsAreStableAcrossRuns) {
  const char* sql = "select R, D, P from s2 -> R, R T, T.date D, T.price P";
  QueryEngine par(&catalog_, "s1", ParallelConfig(4));
  Table first = par.ExecuteSql(sql).value();
  for (int i = 0; i < 5; ++i) {
    Table again = par.ExecuteSql(sql).value();
    EXPECT_TRUE(first.BagEquals(again)) << "run " << i;
  }
}

TEST_F(ParallelEngineTest, ErrorsMatchSerialExecution) {
  // MIN over incomparable values errors identically in both modes.
  const char* sql =
      "select min(P) from s3::stock -> A, s3::stock T, T.A P";
  QueryEngine serial(&catalog_, "s1", ParallelConfig(1));
  QueryEngine par(&catalog_, "s1", ParallelConfig(4));
  Result<Table> a = serial.ExecuteSql(sql);
  Result<Table> b = par.ExecuteSql(sql);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());
}

TEST_F(ParallelEngineTest, DynamicViewMaterializesIdenticallyInParallel) {
  const char* view_sql =
      "create view out::C(date, price) as "
      "select D, P from s1::stock T, T.company C, T.date D, T.price P";
  Catalog serial_target;
  QueryEngine serial(&catalog_, "s1", ParallelConfig(1));
  auto serial_created = ViewMaterializer::MaterializeSql(
      view_sql, &serial, &serial_target, "out");
  ASSERT_TRUE(serial_created.ok()) << serial_created.status().ToString();
  for (size_t threads : {2u, 8u}) {
    Catalog par_target;
    QueryEngine par(&catalog_, "s1", ParallelConfig(threads));
    auto par_created =
        ViewMaterializer::MaterializeSql(view_sql, &par, &par_target, "out");
    ASSERT_TRUE(par_created.ok()) << par_created.status().ToString();
    ASSERT_EQ(serial_created.value(), par_created.value());
    for (const auto& [db, rel] : serial_created.value()) {
      const Table* want = serial_target.ResolveTable(db, rel).value();
      const Table* got = par_target.ResolveTable(db, rel).value();
      EXPECT_TRUE(want->BagEquals(*got)) << db << "::" << rel;
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

// Runs `body` on a worker of `pool` and waits for it to return.
void RunOnWorker(ThreadPool& pool, const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.Submit([&] {
    body();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

TEST(ThreadPoolTest, NestedParallelForBorrowsIdleWorkers) {
  ThreadPool pool(3);
  // Workers count as idle once they wait on the queue; a freshly started
  // one may not have got there yet, so allow a few tries.
  size_t most_threads = 0;
  for (int attempt = 0; attempt < 50 && most_threads < 2; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::mutex mu;
    std::set<std::thread::id> threads;
    std::vector<std::atomic<int>> hits(64);
    RunOnWorker(pool, [&] {
      pool.ParallelFor(hits.size(), [&](size_t i) {
        hits[i].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
      });
    });
    for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
    most_threads = std::max(most_threads, threads.size());
  }
  EXPECT_GT(most_threads, 1u);
}

TEST(ThreadPoolTest, NestedParallelForOnBusyPoolQueuesNoHelper) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool blocker_started = false;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    blocker_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocker_started; });
  }
  // One worker is blocked and the other runs the nested loop: none idle.
  std::vector<std::atomic<int>> hits(200);
  std::atomic<size_t> max_depth{0};
  RunOnWorker(pool, [&] {
    pool.ParallelFor(hits.size(), [&](size_t i) {
      hits[i].fetch_add(1);
      const size_t depth = pool.ApproxQueueDepth();
      if (depth > max_depth.load()) max_depth.store(depth);
    });
  });
  EXPECT_EQ(max_depth.load(), 0u);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(ThreadPoolTest, CancelledNestedParallelForSkipsTheRest) {
  ThreadPool pool(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::atomic<bool> cancel{false};
  std::atomic<int> ran{0};
  RunOnWorker(pool, [&] {
    pool.ParallelFor(
        10000,
        [&](size_t) {
          if (ran.fetch_add(1) >= 10) cancel.store(true);
        },
        &cancel);
  });
  // The eleventh iteration trips the flag. Each of the four threads may
  // still finish one iteration it began and one it had already checked;
  // nothing claimed after the trip runs.
  EXPECT_GE(ran.load(), 11);
  EXPECT_LT(ran.load(), 20);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int calls = 0;
  pool.ParallelFor(5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(1);
    pool.Submit([&] { ran.store(true); });
    // Destructor drains the queue before joining.
  }
  EXPECT_TRUE(ran.load());
}

TEST(TableAppendTest, AppendTableMovesRows) {
  Schema schema({Column("a", TypeKind::kInt)});
  Table a(schema), b(schema);
  a.AppendRowUnchecked({Value::Int(1)});
  b.AppendRowUnchecked({Value::Int(2)});
  b.AppendRowUnchecked({Value::Int(3)});
  ASSERT_TRUE(a.AppendTable(std::move(b)).ok());
  EXPECT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(b.num_rows(), 0u);  // NOLINT(bugprone-use-after-move): spec'd.
  EXPECT_EQ(a.row(2)[0].as_int(), 3);
}

TEST(TableAppendTest, AppendTableIntoEmptyAdoptsRows) {
  Schema schema({Column("a", TypeKind::kInt)});
  Table a(schema), b(schema);
  b.AppendRowUnchecked({Value::Int(7)});
  ASSERT_TRUE(a.AppendTable(std::move(b)).ok());
  EXPECT_EQ(a.num_rows(), 1u);
}

TEST(TableAppendTest, AppendTableRejectsArityMismatch) {
  Table a(Schema({Column("a", TypeKind::kInt)}));
  Table b(Schema({Column("a", TypeKind::kInt), Column("b", TypeKind::kInt)}));
  EXPECT_FALSE(a.AppendTable(std::move(b)).ok());
}

TEST(TableAppendTest, TruncateDropsSuffixInPlace) {
  Table t(Schema({Column("a", TypeKind::kInt)}));
  for (int i = 0; i < 10; ++i) t.AppendRowUnchecked({Value::Int(i)});
  t.Truncate(3);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.row(2)[0].as_int(), 2);
  t.Truncate(100);  // No-op past the end.
  EXPECT_EQ(t.num_rows(), 3u);
}

}  // namespace
}  // namespace dynview
