// Change-based WAL records (ctest -L durability): every commit shape is
// logged as the per-table change it made (appended rows, whole tables,
// drops), and recovering from the log must give a catalog byte-identical to
// the live one, every DatabaseVersion included. Also: the size of a one-row
// maintenance commit, replay's refusals of a delta that does not fit its
// base, and corrupt frames that must surface as typed errors, never as an
// abort or a silent truncation.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "engine/query_engine.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "relational/catalog.h"
#include "schemasql/view_maintainer.h"
#include "schemasql/view_materializer.h"
#include "storage/codec.h"
#include "storage/durable_catalog.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kPartitionView[] =
    "create view mat::C(date, price) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";
constexpr char kPivotView[] =
    "create view piv::stock(date, C) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";

Row StockRow(const std::string& co, const std::string& date, int64_t price) {
  return {Value::String(co), Value::MakeDate(Date::Parse(date).value()),
          Value::Int(price)};
}

std::string DatabaseBytes(const Database& db) {
  ByteWriter w;
  EncodeDatabasePayload(db, &w);
  return w.Take();
}

/// Byte identity of two catalog versions: the same head version, the same
/// original-case database names with the same DatabaseVersion, and every
/// database encoding to the same bytes (relation names, schemas with column
/// types, and every cell's kind and bits).
void ExpectIdentical(const CatalogSnapshot& live, const CatalogSnapshot& got) {
  EXPECT_EQ(got.version(), live.version());
  ASSERT_EQ(got.DatabaseNames(), live.DatabaseNames());
  for (const std::string& name : live.DatabaseNames()) {
    EXPECT_EQ(got.DatabaseVersion(name), live.DatabaseVersion(name)) << name;
    EXPECT_EQ(DatabaseBytes(*got.GetDatabase(name).value()),
              DatabaseBytes(*live.GetDatabase(name).value()))
        << name;
  }
}

/// One line per commit: "db:kind{op ...}" with ops "put t", "append t
/// <base>+<rows>" and "drop t".
std::string Describe(const CatalogChange& change) {
  std::string out;
  for (const DatabaseChange& db : change.databases) {
    if (!out.empty()) out += " ";
    static const char* const kKinds[] = {"modify", "create", "drop"};
    out += db.name + ":" + kKinds[static_cast<int>(db.kind)] + "{";
    for (size_t i = 0; i < db.tables.size(); ++i) {
      const TableChange& t = db.tables[i];
      if (i > 0) out += " ";
      switch (t.kind) {
        case TableChange::Kind::kPut:
          out += "put " + t.name;
          break;
        case TableChange::Kind::kAppend:
          out += "append " + t.name + " " + std::to_string(t.base_rows) +
                 "+" + std::to_string(t.rows.size());
          break;
        case TableChange::Kind::kDrop:
          out += "drop " + t.name;
          break;
      }
    }
    out += "}";
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void AppendFrame(const std::string& path, const std::string& payload) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  w.Raw(payload.data(), payload.size());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
}

Table DoubleTable(const std::vector<Value>& cells) {
  Table t(Schema({{"v", TypeKind::kDouble}}));
  for (const Value& v : cells) t.AppendRowUnchecked({v});
  return t;
}

class WalDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    dir_ = "/tmp/dynview_wal_delta_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter_++);
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    auto wal = WalWriter::Open(WalPath(), /*fsync_each=*/true);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    wal_ = std::move(wal).value();
    catalog_.SetCommitSink(wal_.get());
  }

  void TearDown() override {
    catalog_.SetCommitSink(nullptr);
    FailPoints::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string WalPath() const { return dir_ + "/wal.log"; }

  /// The change logged by the newest commit record.
  CatalogChange LastChange() {
    CatalogChange last;
    Status st = ReplayWal(
        WalPath(), 0,
        [&](WalCommitRecord&& rec) {
          last = std::move(rec.change);
          return Status::OK();
        },
        nullptr, nullptr);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return last;
  }

  /// Recovers a fresh catalog from the log alone and requires it to be
  /// byte-identical to the live one.
  void ExpectRecoversIdentically() {
    Catalog recovered;
    RecoveryReport report;
    Status st = recovered.Recover(dir_, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(report.torn_tail);
    ExpectIdentical(*catalog_.Snapshot(), *recovered.Snapshot());
  }

  /// I::stock (3 companies x 4 dates), with the partition view
  /// materialized into `mat` and the pivot view into `piv`.
  void InstallStockViews() {
    StockGenConfig cfg;
    cfg.num_companies = 3;
    cfg.num_dates = 4;
    ASSERT_TRUE(InstallStockS1(&catalog_, "I", GenerateStockS1(cfg)).ok());
    QueryEngine engine(&catalog_, "I");
    for (const char* view : {kPartitionView, kPivotView}) {
      auto made =
          ViewMaterializer::MaterializeSql(view, &engine, &catalog_, "mat");
      ASSERT_TRUE(made.ok()) << made.status().ToString();
    }
  }

  ViewMaintainer Maintainer(const char* view) {
    auto m = ViewMaintainer::CreateFromSql(view, &catalog_, "I", "mat");
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(m).value();
  }

  std::string dir_;
  Catalog catalog_;
  std::unique_ptr<WalWriter> wal_;
  static int counter_;
};

int WalDeltaTest::counter_ = 0;

// ---- Commit shapes ----------------------------------------------------------

TEST_F(WalDeltaTest, OneRowInsertOnPartitionViewLogsTwoAppends) {
  InstallStockViews();
  ViewMaintainer m = Maintainer(kPartitionView);
  const std::string co = CompanyName(1);
  ASSERT_TRUE(m.ApplyInserts({StockRow(co, "1999-01-01", 123)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 12+1} mat:modify{append " + co + " 4+1}");
  // A new company creates its partition (kNull-typed view columns) whole;
  // the next insert into it appends.
  ASSERT_TRUE(m.ApplyInserts({StockRow("NEWCO", "1999-01-02", 7)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 13+1} mat:modify{put NEWCO}");
  ASSERT_TRUE(m.ApplyInserts({StockRow("NEWCO", "1999-01-03", 8)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 14+1} mat:modify{append NEWCO 1+1}");
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, OneRowInsertOnPivotViewRecoversIdentically) {
  InstallStockViews();
  ViewMaintainer m = Maintainer(kPivotView);
  // A new date is a new group: its row lands after the untouched ones.
  ASSERT_TRUE(m.ApplyInserts({StockRow(CompanyName(0), "1999-01-01", 5)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 12+1} piv:modify{append stock 4+1}");
  // An existing date's group is recomputed and spliced back at the end, so
  // the table is not an extension of the old one; a new company widens
  // the schema. Both log the whole table.
  ASSERT_TRUE(m.ApplyInserts({StockRow(CompanyName(1), "1998-01-01", 6)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 13+1} piv:modify{put stock}");
  ASSERT_TRUE(m.ApplyInserts({StockRow("NEWCO", "1998-01-02", 7)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{append stock 14+1} piv:modify{put stock}");
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, DeletesLogWholeTables) {
  InstallStockViews();
  ViewMaintainer m = Maintainer(kPartitionView);
  const Table* stock = catalog_.ResolveTable("I", "stock").value();
  Row victim = stock->row(0);
  ASSERT_TRUE(m.ApplyDeletes({victim}).ok());
  const std::string co = victim[0].as_string();
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{put stock} mat:modify{put " + co + "}");
  // Emptying a partition drops its label table.
  ASSERT_TRUE(m.ApplyInserts({StockRow("SOLO", "1999-01-01", 1)}).ok());
  ASSERT_TRUE(m.ApplyDeletes({StockRow("SOLO", "1999-01-01", 1)}).ok());
  EXPECT_EQ(Describe(LastChange()),
            "I:modify{put stock} mat:modify{drop SOLO}");
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, PutTableExtendedOrReplaced) {
  Table t(Schema({{"k", TypeKind::kInt}, {"s", TypeKind::kString}}));
  t.AppendRowUnchecked({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(catalog_.PutTable("d", "t", t).ok());
  EXPECT_EQ(Describe(LastChange()), "d:create{put t}");

  t.AppendRowUnchecked({Value::Int(2), Value::String("b")});
  t.AppendRowUnchecked({Value::Int(3), Value::String("a")});
  ASSERT_TRUE(catalog_.PutTable("d", "t", t).ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{append t 1+2}");

  Table replaced(t.schema());
  replaced.AppendRowUnchecked({Value::Int(9), Value::String("z")});
  ASSERT_TRUE(catalog_.PutTable("d", "t", replaced).ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{put t}");

  // Same rows under a schema whose column type or name changed: whole.
  Table retyped(Schema({{"k", TypeKind::kInt}, {"s", TypeKind::kNull}}));
  retyped.AppendRowUnchecked({Value::Int(9), Value::String("z")});
  retyped.AppendRowUnchecked({Value::Int(10), Value::String("y")});
  ASSERT_TRUE(catalog_.PutTable("d", "t", retyped).ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{put t}");
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, DropTableCreateAndDropDatabase) {
  ASSERT_TRUE(catalog_.CreateDatabase("Empty").ok());
  EXPECT_EQ(Describe(LastChange()), "Empty:create{}");
  ASSERT_TRUE(catalog_.PutTable("d", "a", DoubleTable({Value::Double(1)})).ok());
  ASSERT_TRUE(catalog_.PutTable("d", "b", DoubleTable({Value::Double(2)})).ok());
  ASSERT_TRUE(catalog_.DropTable("d", "a").ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{drop a}");
  ASSERT_TRUE(catalog_.PutTable("gone", "x", DoubleTable({})).ok());
  ASSERT_TRUE(catalog_.DropDatabase("gone").ok());
  EXPECT_EQ(Describe(LastChange()), "gone:drop{}");
  // Dropped and re-created under another letter case in one transaction:
  // the database starts over, its tables logged whole.
  ASSERT_TRUE(catalog_
                  .Mutate([](CatalogTxn& txn) -> Status {
                    DV_RETURN_IF_ERROR(txn.DropDatabase("d"));
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.CreateDatabase("D"));
                    db->PutTable("b", DoubleTable({Value::Double(2)}));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(Describe(LastChange()), "D:create{put b}");
  // Created and dropped within one transaction: a version, no change.
  const uint64_t before = catalog_.version();
  ASSERT_TRUE(catalog_
                  .Mutate([](CatalogTxn& txn) -> Status {
                    txn.GetOrCreateDatabase("fleeting");
                    return txn.DropDatabase("fleeting");
                  })
                  .ok());
  EXPECT_EQ(catalog_.version(), before + 1);
  EXPECT_EQ(Describe(LastChange()), "");
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, TouchedButUnchangedDatabaseStillBumpsItsVersion) {
  ASSERT_TRUE(catalog_.PutTable("d", "t", DoubleTable({Value::Double(1)})).ok());
  ASSERT_TRUE(catalog_.PutTable("e", "t", DoubleTable({Value::Double(1)})).ok());
  ASSERT_TRUE(catalog_
                  .Mutate([](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("d"));
                    // Cloned for write, left as it was.
                    DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("t"));
                    (void)t;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{}");
  EXPECT_EQ(catalog_.Snapshot()->DatabaseVersion("d"), catalog_.version());
  EXPECT_LT(catalog_.Snapshot()->DatabaseVersion("e"), catalog_.version());
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, CaseOnlyRelationRenameLogsTheWholeTable) {
  ASSERT_TRUE(
      catalog_.PutTable("d", "prices", DoubleTable({Value::Double(1)})).ok());
  SchemaEvolver evolver(&catalog_);
  ASSERT_TRUE(evolver.Apply(DdlOp::RenameRelation("d", "prices", "Prices")).ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{put Prices}");
  ASSERT_EQ(catalog_.GetDatabase("d").value()->TableNames(),
            std::vector<std::string>{"Prices"});
  ExpectRecoversIdentically();
}

TEST_F(WalDeltaTest, AllSixDdlKindsRecoverIdentically) {
  Table t(Schema({{"co", TypeKind::kString}, {"px", TypeKind::kInt}}));
  t.AppendRowUnchecked({Value::String("a"), Value::Int(1)});
  t.AppendRowUnchecked({Value::String("b"), Value::Int(2)});
  t.AppendRowUnchecked({Value::String("a"), Value::Int(3)});
  ASSERT_TRUE(catalog_.PutTable("d", "t", t).ok());
  SchemaEvolver evolver(&catalog_);
  const std::vector<DdlOp> ops = {
      DdlOp::AddAttribute("d", "t", "vol", Value::Double(-0.0)),
      DdlOp::RenameAttribute("d", "t", "vol", "volume"),
      DdlOp::DropAttribute("d", "t", "volume"),
      DdlOp::RenameRelation("d", "t", "quotes"),
      DdlOp::DemoteDataToLabel("d", "quotes", "co"),
      DdlOp::PromoteLabelToData("d", {"a", "b"}, "united", "co"),
  };
  for (const DdlOp& op : ops) {
    auto applied = evolver.Apply(op);
    ASSERT_TRUE(applied.ok()) << op.ToString() << ": "
                              << applied.status().ToString();
    ExpectRecoversIdentically();
  }
  EXPECT_EQ(Describe(LastChange()), "d:modify{put united drop a drop b}");
}

TEST_F(WalDeltaTest, CellsKeepTheirKindAndBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(catalog_
                  .PutTable("d", "t",
                            DoubleTable({Value::Double(0.0), Value::Double(nan),
                                         Value::Int(1)}))
                  .ok());
  // Value equality calls -0.0 equal to 0.0 and INT 1 equal to DOUBLE 1.0;
  // an append against those would replay the old cells. Whole table.
  ASSERT_TRUE(catalog_
                  .PutTable("d", "t",
                            DoubleTable({Value::Double(-0.0), Value::Double(nan),
                                         Value::Int(1), Value::Double(2)}))
                  .ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{put t}");
  ASSERT_TRUE(catalog_
                  .PutTable("d", "t",
                            DoubleTable({Value::Double(-0.0), Value::Double(nan),
                                         Value::Double(1.0), Value::Double(2)}))
                  .ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{put t}");
  // The same bits, NaN included, extend by the new rows only.
  ASSERT_TRUE(catalog_
                  .PutTable("d", "t",
                            DoubleTable({Value::Double(-0.0), Value::Double(nan),
                                         Value::Double(1.0), Value::Double(2),
                                         Value::Double(-0.0), Value::Int(7)}))
                  .ok());
  EXPECT_EQ(Describe(LastChange()), "d:modify{append t 4+2}");
  ExpectRecoversIdentically();
  Catalog recovered;
  ASSERT_TRUE(recovered.Recover(dir_).ok());
  const Table* got = recovered.ResolveTable("d", "t").value();
  EXPECT_TRUE(std::signbit(got->row(0)[0].as_double()));
  EXPECT_TRUE(std::isnan(got->row(1)[0].as_double()));
  EXPECT_EQ(got->row(5)[0].kind(), TypeKind::kInt);
}

// ---- Size ------------------------------------------------------------------

TEST_F(WalDeltaTest, OneRowInsertOnLargeFederationLogsUnderOneKiB) {
  StockGenConfig cfg;
  cfg.num_companies = 128;
  cfg.num_dates = 400;
  ASSERT_TRUE(InstallStockS1(&catalog_, "I", GenerateStockS1(cfg)).ok());
  QueryEngine engine(&catalog_, "I");
  ASSERT_TRUE(ViewMaterializer::MaterializeSql(kPartitionView, &engine,
                                               &catalog_, "mat")
                  .ok());
  ASSERT_EQ(catalog_.GetDatabase("mat").value()->num_tables(), 128u);
  ViewMaintainer m = Maintainer(kPartitionView);
  const uint64_t before = wal_->bytes_written();
  ASSERT_TRUE(
      m.ApplyInserts({StockRow(CompanyName(17), "2001-01-01", 99)}).ok());
  const uint64_t logged = wal_->bytes_written() - before;
  EXPECT_LT(logged, 1024u) << "a one-row commit must not log whole tables";
  EXPECT_EQ(Describe(LastChange()), "I:modify{append stock 51200+1} "
                                    "mat:modify{append " +
                                        CompanyName(17) + " 400+1}");
  ExpectRecoversIdentically();
}

// ---- Refusals ----------------------------------------------------------------

TEST_F(WalDeltaTest, AppendOntoWrongBaseRowCountIsRefused) {
  Table t(Schema({{"k", TypeKind::kInt}}));
  for (int i = 0; i < 3; ++i) t.AppendRowUnchecked({Value::Int(i)});
  ASSERT_TRUE(catalog_.PutTable("d", "t", t).ok());  // v1: put, 3 rows
  t.AppendRowUnchecked({Value::Int(3)});
  ASSERT_TRUE(catalog_.PutTable("d", "t", t).ok());  // v2: append 3+1
  ASSERT_EQ(Describe(LastChange()), "d:modify{append t 3+1}");

  // A snapshot claiming v1 but holding 2 rows: the append does not fit.
  SnapshotData data;
  data.catalog_version = 1;
  RecoveredDatabase rd;
  rd.name = "d";
  rd.version = 1;
  Table two(t.schema());
  two.AppendRowUnchecked({Value::Int(0)});
  two.AppendRowUnchecked({Value::Int(1)});
  rd.db = Database("d");
  rd.db.PutTable("t", std::move(two));
  data.databases.push_back(std::move(rd));
  ASSERT_TRUE(WriteSnapshotFile(data, dir_ + "/" + SnapshotFileName(1)).ok());

  const std::string log_before = ReadFile(WalPath());
  Catalog recovered;
  Status st = recovered.Recover(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("commit v2"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("expects 3 base row(s), the table has 2"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(ReadFile(WalPath()), log_before) << "the log is left as it is";
}

TEST_F(WalDeltaTest, VersionGapAfterSnapshotFallbackIsRefused) {
  catalog_.SetCommitSink(nullptr);
  Catalog catalog;
  const std::string dir = dir_ + "/durable";
  uint64_t v_old = 0;
  uint64_t v_new = 0;
  {
    auto durable = DurableCatalog::Open(&catalog, dir, {}, {});
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    Table t(Schema({{"k", TypeKind::kInt}}));
    t.AppendRowUnchecked({Value::Int(0)});
    ASSERT_TRUE(catalog.PutTable("d", "t", t).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    v_old = catalog.version();
    t.AppendRowUnchecked({Value::Int(1)});
    ASSERT_TRUE(catalog.PutTable("d", "t", t).ok());
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    v_new = catalog.version();
    t.AppendRowUnchecked({Value::Int(2)});
    ASSERT_TRUE(catalog.PutTable("d", "t", t).ok());  // In the WAL only.
    FailSpec kill;
    kill.mode = FailMode::kErrorAlways;
    FailPoints::Arm("snapshot.write", kill);  // No final checkpoint.
  }
  FailPoints::DisarmAll();
  ASSERT_LT(v_old, v_new);

  // The newest snapshot is unreadable: recovery falls back to the older
  // one, and the log (which continues the newer one) no longer fits.
  FailSpec unreadable;
  unreadable.mode = FailMode::kErrorAlways;
  unreadable.match = SnapshotFileName(v_new);
  FailPoints::Arm("snapshot.load", unreadable);
  const std::string log_before = ReadFile(dir + "/wal.log");
  Catalog recovered;
  RecoveryReport report;
  Status st = recovered.Recover(dir, &report);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("does not follow head v" +
                              std::to_string(v_old)),
            std::string::npos)
      << st.message();
  EXPECT_EQ(report.snapshot_version, v_old);
  EXPECT_EQ(ReadFile(dir + "/wal.log"), log_before);
  FailPoints::DisarmAll();

  // With the newer snapshot readable the same log recovers.
  Catalog again;
  ASSERT_TRUE(again.Recover(dir).ok());
  EXPECT_EQ(again.version(), v_new + 1);
  EXPECT_EQ(again.ResolveTable("d", "t").value()->num_rows(), 3u);
}

// ---- Corrupt frames -----------------------------------------------------------

/// The payload of a commit record whose one table claims `rows` rows of
/// `ncols` INT columns, with no cells behind the claim.
std::string HugeTableRecord(uint32_t ncols, uint64_t rows) {
  ByteWriter w;
  w.U8(3);  // commit
  w.U64(1);
  w.Str("txn");
  w.U32(0);  // dictionary
  w.U32(1);  // databases
  w.Str("d");
  w.U8(1);  // create
  w.U32(1);
  w.U8(1);  // put
  w.Str("t");
  w.U32(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    w.Str("c" + std::to_string(c));
    w.U8(static_cast<uint8_t>(TypeKind::kInt));
  }
  w.U64(rows);
  return w.Take();
}

TEST_F(WalDeltaTest, HugeRowCountIsATypedErrorNotAnAbort) {
  ASSERT_TRUE(catalog_.PutTable("ok", "t", DoubleTable({Value::Double(1)})).ok());
  const uint64_t good = std::filesystem::file_size(WalPath());
  AppendFrame(WalPath(), HugeTableRecord(1, uint64_t{1} << 62));
  const std::string log_before = ReadFile(WalPath());
  Catalog recovered;
  Status st = recovered.Recover(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("byte offset " + std::to_string(good)),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("claims"), std::string::npos) << st.message();
  EXPECT_EQ(ReadFile(WalPath()), log_before);

  // A zero-column table cannot claim unbounded rows either.
  std::filesystem::resize_file(WalPath(), good);
  AppendFrame(WalPath(), HugeTableRecord(0, uint64_t{1} << 62));
  Catalog recovered0;
  st = recovered0.Recover(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(WalDeltaTest, SharedDecodersBoundEveryCount) {
  // Snapshots decode with the same functions: each count is checked
  // against the bytes that remain before anything is allocated.
  auto expect_parse_error = [](const Status& st, const char* what) {
    EXPECT_EQ(st.code(), StatusCode::kParseError) << what << ": "
                                                  << st.ToString();
  };
  {
    ByteWriter w;
    w.U32(0xFFFFFFFFu);  // columns
    ByteReader r(w.buffer());
    expect_parse_error(DecodeSchema(&r).status(), "schema");
  }
  {
    ByteWriter w;
    w.Str("db");
    w.U32(0xFFFFFFFFu);  // dictionary strings
    ByteReader r(w.buffer());
    expect_parse_error(DecodeDatabasePayload(&r).status(), "database dict");
  }
  {
    ByteWriter w;
    w.U32(0xFFFFFFFFu);  // dictionary strings
    ByteReader r(w.buffer());
    expect_parse_error(DecodeStandaloneTable(&r).status(), "standalone dict");
  }
  {
    ByteWriter w;
    w.Str("db");
    w.U32(0);  // dictionary
    w.U32(1);  // tables
    w.Str("t");
    w.U32(0);  // zero columns
    w.U64(uint64_t{1} << 62);
    ByteReader r(w.buffer());
    expect_parse_error(DecodeDatabasePayload(&r).status(), "zero-column rows");
  }
  {
    // A legitimate zero-column table with rows still round-trips.
    Table t;
    t.AppendRowUnchecked({});
    t.AppendRowUnchecked({});
    ByteWriter w;
    EncodeStandaloneTable(t, &w);
    ByteReader r(w.buffer());
    auto back = DecodeStandaloneTable(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().num_rows(), 2u);
  }
}

TEST_F(WalDeltaTest, HugeCountInARegistrationBlobIsAnErrorNotAnAbort) {
  // A source registration record claiming 2^32 - 1 materialization refs.
  ByteWriter source;
  source.Str("create view mat::C(date, price) as select D, P from I::stock T, "
             "T.company C, T.date D, T.price P");
  source.U8(0);
  source.U64(0);
  source.U32(0xFFFFFFFFu);
  ByteWriter blob;
  blob.U8(2);  // blob
  blob.U64(0);
  blob.Str("source");
  blob.Str(source.buffer());
  AppendFrame(WalPath(), blob.buffer());
  catalog_.SetCommitSink(nullptr);
  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  Status st = system.OpenDurable(dir_);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_NE(st.message().find("materialization refs"), std::string::npos)
      << st.message();
}

TEST_F(WalDeltaTest, UnknownOrRetiredRecordTypeIsRefusedNotTruncated) {
  ASSERT_TRUE(catalog_.PutTable("ok", "t", DoubleTable({Value::Double(1)})).ok());
  const uint64_t good = std::filesystem::file_size(WalPath());
  AppendFrame(WalPath(), std::string("\x7f\x01\x02\x03", 4));
  // A valid record after it must not be thrown away either.
  ASSERT_TRUE(catalog_.PutTable("ok", "u", DoubleTable({Value::Double(2)})).ok());
  const std::string log_before = ReadFile(WalPath());
  Catalog recovered;
  RecoveryReport report;
  Status st = recovered.Recover(dir_, &report);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("byte offset " + std::to_string(good) +
                              " has unknown record type 127"),
            std::string::npos)
      << st.message();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(ReadFile(WalPath()), log_before);
  // Opening the directory for writing refuses it too, and writes nothing:
  // no checkpoint of the partial recovery, no truncation.
  catalog_.SetCommitSink(nullptr);
  Catalog reopened;
  auto durable = DurableCatalog::Open(&reopened, dir_, {}, {});
  EXPECT_EQ(durable.status().code(), StatusCode::kDataLoss)
      << durable.status().ToString();
  EXPECT_TRUE(ListSnapshotFiles(dir_).empty());
  EXPECT_EQ(ReadFile(WalPath()), log_before);

  // The retired whole-database commit record (type 1) is refused the same
  // way: replaying it as a delta, or truncating it, would lose data.
  std::filesystem::resize_file(WalPath(), good);
  ByteWriter old;
  old.U8(1);
  old.U64(2);
  old.Str("txn");
  old.U32(0);
  old.U32(0);
  AppendFrame(WalPath(), old.buffer());
  Catalog recovered_old;
  st = recovered_old.Recover(dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("retired"), std::string::npos) << st.message();
  EXPECT_GT(std::filesystem::file_size(WalPath()), good);
}

TEST_F(WalDeltaTest, ZeroFilledTailIsTornNotCorrupt) {
  ASSERT_TRUE(catalog_.PutTable("ok", "t", DoubleTable({Value::Double(1)})).ok());
  const uint64_t good = std::filesystem::file_size(WalPath());
  {
    // What a crash can leave after the file grew: zeros, whose empty
    // "payload" has a matching CRC.
    std::ofstream out(WalPath(), std::ios::binary | std::ios::app);
    const std::string zeros(64, '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_bytes, 64u);
  EXPECT_EQ(std::filesystem::file_size(WalPath()), good);
  ExpectIdentical(*catalog_.Snapshot(), *recovered.Snapshot());
}

}  // namespace
}  // namespace dynview
