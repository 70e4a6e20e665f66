// dynview_bench: DynView's served-query benchmark.
//
//   dynview_bench --workload <served_fanout|served_point>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--commit <id>]
//
// One client thread drives the program as shipped (default ExecConfig,
// ServerOptions and DurabilityOptions) in a closed loop for --seconds.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, timed from outside by calling each layer's
// public functions. The last line of standard output is the result object;
// the full report and the span log go under --out-dir.
// perfbench/README.md describes the workloads and metrics.

#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "integration/integration.h"
#include "plan_cache/fingerprint.h"
#include "relational/csv.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/parser.h"

#include "oracle.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace dv = dynview;

enum class Kind { kFanout, kPoint };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int companies;
  int dates;
  int warmup_ops;  // Untimed requests before the window.
  int setup_reps;  // Measured set-ups (after one warm-up set-up).
};

// Set-up runs 1 + setup_reps times per process, each on fresh objects. The
// first is a warm-up (the first repetition in a process is always the
// slowest); setup_s is the median of the rest. The counts give each
// workload about two seconds of measured set-up.
constexpr WorkloadSpec kWorkloads[] = {
    {"served_fanout", Kind::kFanout, 64, 400, 40, 30},
    {"served_point", Kind::kPoint, 128, 400, 500, 15},
};

// Point-style texts per company: half price ranges, half date ranges.
constexpr int kVariantsPerCompany = 32;
// Zipf exponent over the point texts; with 4096 texts it makes the
// 256-entry plan cache hit about half the time.
constexpr double kZipfExponent = 0.95;
// One-row commits of the maintenance phase that follows the read window.
// Each commit logs the touched databases in full, and they grow by a row a
// commit, so wal_bytes_per_user_byte depends on this count: it is fixed.
constexpr int kMaintenanceCommits = 32;
// Traced run: texts replayed in-process, and one-row probes per layer.
constexpr int kReplayTexts = 48;
constexpr int kProbeCommits = 12;

constexpr char kPartitionView[] =
    "create view s2::C(date, price) as select D, P from I::stock T, "
    "T.company C, T.date D, T.price P";
constexpr char kPivotView[] =
    "create view s3::stock(date, C) as select D, P from I::stock T, "
    "T.company C, T.date D, T.price P";
constexpr char kCompanyIndex[] =
    "create index byCompany as btree by given T.company select T.company, "
    "T.date, T.price from I::stock T";

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "dynview_bench: %s\n", what.c_str());
  std::exit(2);
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3) +
         (static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Flushes `dir`'s file system and removes the directory, so no run pays
/// for an earlier run's writeback.
void FlushAndRemove(const std::string& dir) {
  if (dir.empty()) return;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

dv::Value DateValue(int offset) {
  Ymd d = DateOfOffset(offset);
  auto date = dv::Date::FromYmd(d.year, d.month, d.day);
  if (!date.ok()) Die("bad date offset " + std::to_string(offset));
  return dv::Value::MakeDate(date.value());
}

dv::Row StockRowValues(const std::string& company, const StockRow& r) {
  return {dv::Value::String(company), DateValue(r.day), dv::Value::Int(r.price)};
}

dv::Table StockTable(const Dataset& ds) {
  dv::Table t(dv::Schema({{"company", dv::TypeKind::kString},
                          {"date", dv::TypeKind::kDate},
                          {"price", dv::TypeKind::kInt}}));
  for (size_t c = 0; c < ds.rows.size(); ++c) {
    for (const StockRow& r : ds.rows[c]) {
      t.AppendRowUnchecked(StockRowValues(ds.names[c], r));
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Query texts and the request stream.

std::vector<QuerySpec> FanoutTexts(const Dataset& ds) {
  // Price bands that each hold 40% of the generated prices, at different
  // offsets. Every text costs the same, so the latency distribution has one
  // mode and its median does not jump between texts of different sizes
  // when the draw mix shifts.
  std::vector<int64_t> prices;
  for (const auto& rows : ds.rows) {
    for (const StockRow& r : rows) prices.push_back(r.price);
  }
  std::sort(prices.begin(), prices.end());
  auto quantile = [&](double q) {
    return prices[static_cast<size_t>(q * static_cast<double>(prices.size() - 1))];
  };
  std::vector<QuerySpec> texts;
  for (double from : {0.10, 0.25, 0.40, 0.55}) {
    QuerySpec q;
    q.price_lo = quantile(from);
    q.price_hi = quantile(from + 0.40);
    q.sql = "select R, D, P from s2 -> R, R T, T.date D, T.price P where P >= " +
            std::to_string(q.price_lo) + " and P < " + std::to_string(q.price_hi);
    texts.push_back(std::move(q));
  }
  return texts;
}

std::vector<QuerySpec> PointTexts(const Dataset& ds) {
  std::vector<QuerySpec> texts;
  const int half = kVariantsPerCompany / 2;
  const int64_t width = (kMaxPrice - kMinPrice) * 2 / 5;
  const int64_t step = (kMaxPrice - kMinPrice - width) / half;
  const int days = ds.dates * 2 / 5;
  const int day_step = (ds.dates - days) / half;
  for (size_t c = 0; c < ds.names.size(); ++c) {
    const std::string prefix =
        "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
        "where C = '" + ds.names[c] + "' and ";
    for (int v = 0; v < kVariantsPerCompany; ++v) {
      QuerySpec q;
      q.company = static_cast<int>(c);
      if (v < half) {
        q.price_lo = kMinPrice + step * v;
        q.price_hi = q.price_lo + width;
        q.sql = prefix + "P >= " + std::to_string(q.price_lo) + " and P < " +
                std::to_string(q.price_hi);
      } else {
        q.day_lo = day_step * (v - half);
        q.day_hi = q.day_lo + days;
        q.sql = prefix + "D >= DATE '" + DateString(q.day_lo) +
                "' and D < DATE '" + DateString(q.day_hi) + "'";
      }
      texts.push_back(std::move(q));
    }
  }
  return texts;
}

/// Draws text indexes: uniform over the handful of fan-out texts, Zipf over
/// the point texts. Popularity ranks cycle through the companies (in a
/// seeded order) before moving to the next variant, and the variants go
/// price range, date range, price range, ... in a fixed order. So every
/// seed gives the hot texts the same mix of shapes and the same sizes; the
/// seed only decides which companies are hot.
class TextStream {
 public:
  /// Uniform over `n` texts.
  TextStream(uint64_t seed, size_t n) : rng_(seed), n_(n) {}

  /// Zipf over companies x variants texts, laid out company-major as
  /// PointTexts makes them.
  TextStream(uint64_t seed, size_t companies, size_t variants)
      : rng_(seed), n_(companies * variants) {
    std::vector<size_t> order(companies);
    for (size_t i = 0; i < companies; ++i) order[i] = i;
    for (size_t i = companies; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Below(i)]);
    }
    const size_t half = variants / 2;
    double total = 0;
    for (size_t k = 0; k < n_; ++k) {
      size_t j = k / companies;
      size_t variant = j % 2 == 0 ? j / 2 : half + j / 2;
      by_rank_.push_back(order[k % companies] * variants + variant);
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& x : cdf_) x /= total;
  }

  size_t Next() {
    if (cdf_.empty()) return rng_.Below(n_);
    double u = rng_.Unit();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return by_rank_[std::min(rank, n_ - 1)];
  }

 private:
  Rng rng_;
  size_t n_;
  std::vector<size_t> by_rank_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// The system under test.

/// One complete served system. Members are destroyed in reverse
/// dependency order by Close().
struct Fixture {
  std::unique_ptr<dv::Catalog> catalog;
  std::unique_ptr<dv::IntegrationSystem> system;
  std::optional<dv::ViewMaintainer> maintainer;
  std::unique_ptr<dv::QueryServer> server;
  std::unique_ptr<dv::ServerClient> client;
  std::string dir;  // Durable directory; empty until OpenDurable.
  double materialize_ms = 0;
  double checkpoint_ms = 0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { Close(); }

  void Close() {
    client.reset();
    if (server) server->Stop();
    server.reset();
    maintainer.reset();
    system.reset();
    catalog.reset();
  }
};

/// Installs `ds` as I::stock and registers the federation: the partition
/// view s2 (one relation per company), the pivot view s3 and the
/// view-described B+-tree on company, in that order.
void BuildSystem(const Dataset& ds, Fixture* fx) {
  fx->catalog = std::make_unique<dv::Catalog>();
  dv::Status st = fx->catalog->PutTable("I", "stock", StockTable(ds));
  if (!st.ok()) Die("install I::stock: " + st.ToString());
  fx->system = std::make_unique<dv::IntegrationSystem>(fx->catalog.get(), "I");
  int64_t t0 = NowNs();
  for (const char* view : {kPartitionView, kPivotView}) {
    auto r = fx->system->RegisterAndMaterializeSource(view);
    if (!r.ok()) Die("materialize: " + r.status().ToString());
  }
  fx->materialize_ms = MsSince(t0);
  auto idx = fx->system->RegisterIndex(kCompanyIndex);
  if (!idx.ok()) Die("index: " + idx.status().ToString());
}

void OpenDurable(Fixture* fx, const std::string& dir) {
  FlushAndRemove(dir);
  fx->dir = dir;
  int64_t t0 = NowNs();
  dv::Status st = fx->system->OpenDurable(dir);
  if (!st.ok()) Die("OpenDurable: " + st.ToString());
  fx->checkpoint_ms = MsSince(t0);
}

void CreateMaintainer(Fixture* fx) {
  auto m = fx->system->CreateMaintainer(0, "s2");
  if (!m.ok()) Die("CreateMaintainer: " + m.status().ToString());
  fx->maintainer.emplace(std::move(m).value());
}

void StartServing(Fixture* fx) {
  fx->server = std::make_unique<dv::QueryServer>(fx->system.get());
  dv::Status st = fx->server->Start();
  if (!st.ok()) Die("server start: " + st.ToString());
  auto c = dv::ServerClient::Connect("127.0.0.1", fx->server->port(),
                                     "perfbench");
  if (!c.ok()) Die("connect: " + c.status().ToString());
  fx->client = std::move(c).value();
  auto ping = fx->client->Ping();
  if (!ping.ok() || !ping.value().status.ok()) Die("first ping failed");
}

// ---------------------------------------------------------------------------
// One run.

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
  std::string commit = "unknown";
};

/// One printed metric and its sample count.
struct Metric {
  double value = 0;
  const char* unit = "";
  size_t n = 0;
};

/// One acknowledged insert, checked again after the reopen.
struct Insert {
  int company = 0;
  StockRow row;
};

struct WindowStats {
  std::vector<double> read_ms;
  std::vector<double> read_at_s;  // Completion time of each read, from start.
  std::vector<double> traced_read_ms;  // Reads made with a span (traced run).
  std::vector<double> commit_ms;
  std::vector<double> queue_ms;
  std::vector<double> overhead_ms;
  OpTally tally;
  double cpu_ms = 0;
  double oracle_cpu_ms = 0;  // Thread CPU of the reply checks.
  double wall_s = 0;
  uint64_t reads_ok = 0;
  uint64_t commits_ok = 0;
  uint64_t wal_bytes = 0;   // storage.wal_bytes written by the commits.
  uint64_t user_bytes = 0;  // Typed-CSV bytes of the rows they inserted.
};

class Run {
 public:
  explicit Run(const Options& opt) : opt_(opt), spec_(*opt.spec) {}

  int Main();

 private:
  std::string Path(const std::string& leaf) const {
    return opt_.out_dir + "/" + leaf;
  }
  void Put(const std::string& name, double value, const char* unit, size_t n) {
    metrics_[name] = Metric{value, unit, n};
  }
  std::string RunTag() const {
    return std::string(spec_.name) + "-seed" + std::to_string(opt_.seed) +
           "-trace" + (opt_.trace ? "1" : "0");
  }

  void Setup();
  std::unique_ptr<TextStream> MakeStream(uint64_t seed) const;
  const RowDigest& Expected(size_t text);
  void InvalidateCompany(int company);
  void ServedRead(size_t text, WindowStats* w, Tracer* tracer,
                  uint64_t request);
  void Commit(WindowStats* w, Tracer* tracer, uint64_t request);
  WindowStats Window(double seconds, int64_t max_ops, Tracer* tracer);
  void Warmup(OpTally* tally);
  void MaintenancePhase(WindowStats* w, Tracer* tracer);
  bool ReopenCheck(double* recovery_ms);
  void Replay(Tracer* tracer, OpTally* tally);
  std::vector<double> TwinDeltaProbe();
  std::vector<double> MutateProbe();
  bool EndToEnd(OpTally* tally);
  bool PerLayer(OpTally* tally);

  Options opt_;
  const WorkloadSpec& spec_;
  Dataset ds_;
  std::vector<QuerySpec> texts_;
  std::vector<std::optional<RowDigest>> expected_;
  std::vector<std::vector<size_t>> texts_of_company_;
  std::unique_ptr<TextStream> stream_;
  Fixture fx_;
  std::vector<double> setup_s_;
  std::vector<double> materialize_ms_;
  std::vector<double> checkpoint_ms_;
  Rng write_rng_{0};
  std::vector<int> next_day_;
  std::vector<Insert> acked_;
  int64_t window_start_ns_ = 0;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> context_;  // Printed, not gated.
};

void Run::Setup() {
  std::filesystem::create_directories(Path("durable"));
  for (int rep = 0; rep <= spec_.setup_reps; ++rep) {
    fx_.Close();
    int64_t t0 = NowNs();
    ds_ = Dataset::Generate(opt_.seed, spec_.companies, spec_.dates);
    BuildSystem(ds_, &fx_);
    StartServing(&fx_);
    double s = MsSince(t0) / 1e3;
    if (rep == 0) continue;  // Warm-up.
    setup_s_.push_back(s);
    materialize_ms_.push_back(fx_.materialize_ms);
  }

  texts_ = spec_.kind == Kind::kFanout ? FanoutTexts(ds_) : PointTexts(ds_);
  expected_.assign(texts_.size(), std::nullopt);
  texts_of_company_.assign(ds_.names.size(), {});
  for (size_t t = 0; t < texts_.size(); ++t) {
    if (texts_[t].company >= 0) {
      texts_of_company_[static_cast<size_t>(texts_[t].company)].push_back(t);
    }
  }
  stream_ = MakeStream(opt_.seed * 7919 + 1);
  write_rng_ = Rng(opt_.seed * 104729 + 3);
  next_day_.assign(ds_.names.size(), ds_.dates);
}

std::unique_ptr<TextStream> Run::MakeStream(uint64_t seed) const {
  if (spec_.kind == Kind::kFanout) {
    return std::make_unique<TextStream>(seed, texts_.size());
  }
  return std::make_unique<TextStream>(seed, ds_.names.size(),
                                      kVariantsPerCompany);
}

const RowDigest& Run::Expected(size_t text) {
  if (!expected_[text]) expected_[text] = ExpectedDigest(ds_, texts_[text]);
  return *expected_[text];
}

void Run::InvalidateCompany(int company) {
  for (size_t t : texts_of_company_[static_cast<size_t>(company)]) {
    expected_[t].reset();
  }
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void Run::ServedRead(size_t text, WindowStats* w, Tracer* tracer,
                     uint64_t request) {
  const RowDigest& want = Expected(text);
  int64_t t0 = NowNs();
  auto reply = fx_.client->Query(texts_[text].sql);
  int64_t t1 = NowNs();
  if (tracer != nullptr) tracer->Add("served.request", t0, t1, -1, request);
  Outcome o;
  if (!reply.ok()) {
    o = ClassifyRead(false, false, false, false);
  } else {
    const dv::ClientReply& r = reply.value();
    bool status_ok = r.status.ok();
    const double check0 = ThreadCpuMs();
    const bool rows_match = status_ok && ReplyMatches(r.csv, want);
    w->oracle_cpu_ms += ThreadCpuMs() - check0;
    o = ClassifyRead(true, status_ok, r.retry_after_ms > 0, rows_match);
    if (status_ok) {
      double ms = static_cast<double>(t1 - t0) / 1e6;
      if (tracer != nullptr) {
        w->traced_read_ms.push_back(ms);
      } else {
        w->read_ms.push_back(ms);
        w->read_at_s.push_back(static_cast<double>(t1 - window_start_ns_) /
                               1e9);
      }
      w->queue_ms.push_back(r.queue_ms);
      w->overhead_ms.push_back(ms - r.queue_ms - r.exec_ms);
    }
  }
  if (o != Outcome::kOk && o != Outcome::kWrongAnswer) {
    std::fprintf(stderr, "read failed: %s\n",
                 reply.ok() ? reply.value().status.ToString().c_str()
                            : reply.status().ToString().c_str());
  }
  if (o == Outcome::kWrongAnswer) {
    std::fprintf(stderr, "wrong answer: %s\n", texts_[text].sql.c_str());
  }
  w->tally.Record(o);
  if (o == Outcome::kOk) ++w->reads_ok;
}

uint64_t WalBytes(const dv::IntegrationSystem& system) {
  const dv::MetricsRegistry* m = system.storage_metrics();
  return m == nullptr ? 0 : m->Value(dv::counters::kStorageWalBytes);
}

void Run::Commit(WindowStats* w, Tracer* tracer, uint64_t request) {
  int c = static_cast<int>(write_rng_.Below(ds_.names.size()));
  StockRow row{next_day_[static_cast<size_t>(c)]++,
               kMinPrice + static_cast<int64_t>(
                               write_rng_.Below(kMaxPrice - kMinPrice))};
  const std::string& name = ds_.names[static_cast<size_t>(c)];
  const uint64_t wal0 = WalBytes(*fx_.system);
  int64_t t0 = NowNs();
  dv::Status st = fx_.maintainer->ApplyInserts({StockRowValues(name, row)});
  int64_t t1 = NowNs();
  if (tracer != nullptr) {
    tracer->Add("schemasql.apply_inserts", t0, t1, -1, request);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
    w->tally.Record(Outcome::kCommitFailed);
    return;
  }
  w->commit_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  w->wal_bytes += WalBytes(*fx_.system) - wal0;
  w->user_bytes += RowCsvLine(name, row).size();
  ds_.rows[static_cast<size_t>(c)].push_back(row);
  InvalidateCompany(c);
  acked_.push_back({c, row});
  w->tally.Record(Outcome::kOk);
  ++w->commits_ok;
}

/// The closed loop: one request at a time until `seconds` have passed or
/// `max_ops` operations were made (-1: no limit). With a tracer, every
/// other request records a span, so traced and untraced reads share the
/// machine's speed of the moment.
WindowStats Run::Window(double seconds, int64_t max_ops, Tracer* tracer) {
  WindowStats w;
  double cpu0 = CpuMs();
  int64_t t0 = NowNs();
  window_start_ns_ = t0;
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  uint64_t request = 0;
  while (NowNs() < stop && (max_ops < 0 || request < static_cast<uint64_t>(max_ops))) {
    ++request;
    ServedRead(stream_->Next(), &w, request % 2 == 0 ? tracer : nullptr,
               request);
  }
  w.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  w.cpu_ms = CpuMs() - cpu0;
  return w;
}

/// Untimed requests before the window, so caches fill and lazy set-up
/// finishes first. Their failures still count.
void Run::Warmup(OpTally* tally) {
  WindowStats w = Window(1e9, spec_.warmup_ops, nullptr);
  tally->Merge(w.tally);
}

/// After the read window, attach durability on a fresh directory and commit
/// kMaintenanceCommits one-row inserts through the partition view's
/// maintainer: the commit and storage metrics.
void Run::MaintenancePhase(WindowStats* w, Tracer* tracer) {
  OpenDurable(&fx_, Path("durable/" + RunTag() + "-" +
                         std::to_string(getpid()) + "-maint"));
  checkpoint_ms_.push_back(fx_.checkpoint_ms);
  CreateMaintainer(&fx_);
  for (int i = 0; i < kMaintenanceCommits; ++i) Commit(w, tracer, 0);
}

/// Closes the served system and reopens its directory in a fresh
/// IntegrationSystem: the head version must match, and every acknowledged
/// insert must be visible in the maintained partition view.
bool Run::ReopenCheck(double* recovery_ms) {
  const uint64_t head = fx_.catalog->version();
  const std::string dir = fx_.dir;
  fx_.Close();
  bool ok = true;
  {
    dv::Catalog catalog;
    dv::IntegrationSystem system(&catalog, "I");
    int64_t t0 = NowNs();
    dv::Status st = system.OpenDurable(dir);
    *recovery_ms = MsSince(t0);
    if (!st.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n", st.ToString().c_str());
      ok = false;
    } else if (catalog.version() != head) {
      std::fprintf(stderr, "reopen: head %llu, expected %llu\n",
                   static_cast<unsigned long long>(catalog.version()),
                   static_cast<unsigned long long>(head));
      ok = false;
    }
    for (const Insert& ins : acked_) {
      if (!ok) break;
      const std::string& name = ds_.names[static_cast<size_t>(ins.company)];
      auto table = catalog.ResolveTable("s2", name);
      bool found = false;
      if (table.ok()) {
        dv::Row want = StockRowValues(name, ins.row);
        for (const dv::Row& r : table.value()->rows()) {
          if (r.size() == 2 && r[0] == want[1] && r[1] == want[2]) {
            found = true;
            break;
          }
        }
      }
      if (!found) {
        std::fprintf(stderr, "reopen: insert %s %s lost\n", name.c_str(),
                     DateString(ins.row.day).c_str());
        ok = false;
      }
    }
  }
  FlushAndRemove(dir);
  return ok;
}

/// Replays a sample of the workload's texts in-process through each
/// layer's public function, with a span around each call.
void Run::Replay(Tracer* tracer, OpTally* tally) {
  std::unique_ptr<TextStream> sample = MakeStream(opt_.seed * 31 + 5);
  dv::IntegrationSystem& sys = *fx_.system;
  uint64_t scanned = 0, result_rows = 0, groundings = 0;
  int64_t csv_ns = 0;
  for (int i = 0; i < kReplayTexts; ++i) {
    const size_t t = sample->Next();
    const std::string& sql = texts_[t].sql;
    const uint64_t req = 1000000 + static_cast<uint64_t>(i);
    const int64_t root = tracer->Begin("replay.request", -1, req);

    int64_t s = tracer->Begin("server.wire", root, req);
    dv::Request wire_req;
    wire_req.id = req;
    wire_req.verb = dv::Verb::kQuery;
    wire_req.sql = sql;
    std::string payload = dv::EncodeRequest(wire_req);
    auto doc = dv::JsonParse(payload);
    bool wire_ok = doc.ok() && dv::ParseRequest(doc.value()).ok();
    tracer->End(s);

    s = tracer->Begin("sql.parse", root, req);
    auto parsed = dv::Parser::ParseSelect(sql);
    tracer->End(s);

    s = tracer->Begin("plan_cache.fingerprint", root, req);
    auto fp = dv::FingerprintSql(sql, dv::FingerprintMode::kExact);
    tracer->End(s);

    s = tracer->Begin("integration.rewrite", root, req);
    auto rewritten = sys.Rewrite(sql, false);
    tracer->End(s);

    dv::SelectStmt* stmt = nullptr;
    if (rewritten.ok()) {
      stmt = rewritten.value().query.get();
    } else if (parsed.ok()) {
      stmt = parsed.value().get();  // No usable source: the direct plan.
    }
    dv::QueryObserver obs;
    dv::QueryContext qc;
    qc.set_observer(&obs);
    s = tracer->Begin("engine.execute", root, req);
    auto table = stmt != nullptr
                     ? sys.engine()->Execute(stmt, &qc)
                     : dv::Result<dv::Table>(dv::Status::Internal("no stmt"));
    tracer->End(s);

    std::string csv;
    if (table.ok()) {
      s = tracer->Begin("relational.csv", root, req);
      csv = dv::TableToCsvTyped(table.value());
      tracer->End(s);
      csv_ns += tracer->spans()[static_cast<size_t>(s)].ns();
      scanned += obs.metrics.Value(dv::counters::kRowsScanned);
      groundings += obs.metrics.Value(dv::counters::kGroundingsEvaluated);
      result_rows += table.value().num_rows();
    }
    tracer->End(root);
    const RowDigest& want = Expected(t);
    tally->Record(wire_ok && parsed.ok() && fp.ok() && table.ok() &&
                         ReplyMatches(csv, want)
                     ? Outcome::kOk
                     : Outcome::kWrongAnswer);

    sys.ClearPlanCache();
    for (const char* name :
         {"integration.answer_cold", "integration.answer_warm"}) {
      s = tracer->Begin(name, -1, req);
      auto answer = sys.AnswerGuarded(sql, dv::AnswerOptions{});
      tracer->End(s);
      bool ok = answer.ok() &&
                ReplyMatches(dv::TableToCsvTyped(answer.value().table), want);
      tally->Record(ok ? Outcome::kOk : Outcome::kWrongAnswer);
    }
  }
  auto p50 = [&](const char* span, double scale, const char* unit,
                 const std::string& metric) {
    std::vector<double> d = tracer->DurationsMs(span);
    Put(metric, Percentile(Sorted(d), 50) * scale, unit, d.size());
  };
  p50("server.wire", 1e3, "us", "server.wire_us.p50");
  p50("sql.parse", 1e3, "us", "sql.parse_us.p50");
  p50("plan_cache.fingerprint", 1e3, "us", "plan_cache.fingerprint_us.p50");
  p50("integration.rewrite", 1e3, "us", "integration.rewrite_us.p50");
  p50("engine.execute", 1.0, "ms", "engine.execute_ms.p50");
  p50("integration.answer_cold", 1.0, "ms", "integration.answer_cold_ms.p50");
  p50("integration.answer_warm", 1.0, "ms", "integration.answer_warm_ms.p50");
  const double rows = std::max<double>(1.0, result_rows);
  Put("engine.rows_scanned_per_row", static_cast<double>(scanned) / rows,
      "ratio", kReplayTexts);
  Put("engine.groundings_evaluated_per_req",
      static_cast<double>(groundings) / kReplayTexts, "count", kReplayTexts);
  Put("relational.csv_us_per_krow", static_cast<double>(csv_ns) / rows,
      "us", kReplayTexts);

  // The share of each replayed round trip that no layer span covers.
  std::vector<int64_t> self = tracer->SelfTimesNs();
  int64_t total = 0, uncovered = 0;
  for (size_t i = 0; i < tracer->spans().size(); ++i) {
    const Span& sp = tracer->spans()[i];
    if (sp.name != "replay.request") continue;
    total += sp.ns();
    uncovered += self[i];
  }
  Put("trace.unattributed_share",
      static_cast<double>(uncovered) / std::max<double>(1.0, total), "ratio",
      kReplayTexts);
}


/// schemasql.delta_ms: one-row ApplyInserts on a non-durable twin of the
/// served system (same data, same registrations, no server).
std::vector<double> Run::TwinDeltaProbe() {
  Fixture twin;
  BuildSystem(ds_, &twin);
  CreateMaintainer(&twin);
  Rng rng(opt_.seed * 613 + 11);
  std::vector<int> next_day = next_day_;
  std::vector<double> ms;
  for (int i = 0; i < kProbeCommits; ++i) {
    size_t c = rng.Below(ds_.names.size());
    StockRow row{next_day[c]++, kMinPrice + static_cast<int64_t>(
                                    rng.Below(kMaxPrice - kMinPrice))};
    int64_t t0 = NowNs();
    dv::Status st =
        twin.maintainer->ApplyInserts({StockRowValues(ds_.names[c], row)});
    if (!st.ok()) Die("twin ApplyInserts: " + st.ToString());
    ms.push_back(MsSince(t0));
  }
  return ms;
}

/// relational.mutate_ms: a one-row Catalog::Mutate on the served catalog
/// (durable by the time this runs). It writes a table of its own, bench::probe.
std::vector<double> Run::MutateProbe() {
  std::vector<double> ms;
  for (int i = 0; i < kProbeCommits; ++i) {
    dv::Table t(dv::Schema({{"n", dv::TypeKind::kInt}}));
    t.AppendRowUnchecked({dv::Value::Int(i)});
    int64_t t0 = NowNs();
    auto v = fx_.catalog->Mutate(
        [&](dv::CatalogTxn& txn) {
          txn.GetOrCreateDatabase("bench")->PutTable("probe", std::move(t));
          return dv::Status::OK();
        },
        "bench.probe");
    if (!v.ok()) Die("Mutate: " + v.status().ToString());
    ms.push_back(MsSince(t0));
  }
  return ms;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

/// The median read latency of each whole second of the window, to show
/// how the machine's speed moved during the run.
std::string PerSecondMedians(const WindowStats& w) {
  std::vector<std::vector<double>> by_second(static_cast<size_t>(w.wall_s));
  for (size_t i = 0; i < w.read_ms.size(); ++i) {
    size_t k = static_cast<size_t>(w.read_at_s[i]);
    if (k < by_second.size()) by_second[k].push_back(w.read_ms[i]);
  }
  std::string out;
  for (const std::vector<double>& v : by_second) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ",
                  Percentile(Sorted(v), 50));
    out += buf;
  }
  return out;
}

/// --trace 0: warm-up, the timed window, the maintenance phase and the
/// reopen check; prints the end-to-end metrics. Returns the reopen verdict.
bool Run::EndToEnd(OpTally* tally) {
  Warmup(tally);
  WindowStats w = Window(opt_.seconds, -1, nullptr);
  const double peak = PeakRssMb();
  const uint64_t ops = w.reads_ok;
  MaintenancePhase(&w, nullptr);
  double recovery_ms = 0;
  const bool reopen_ok = ReopenCheck(&recovery_ms);
  tally->Merge(w.tally);

  std::vector<double> reads = Sorted(w.read_ms);
  std::vector<double> commits = Sorted(w.commit_ms);
  Put("latency_p50_ms", Percentile(reads, 50), "ms", reads.size());
  Put("cpu_ms_per_op", w.cpu_ms / std::max<double>(1.0, ops), "ms", ops);
  Put("wal_bytes_per_user_byte",
      static_cast<double>(w.wal_bytes) /
          std::max<double>(1.0, static_cast<double>(w.user_bytes)),
      "count", w.commits_ok);
  Put("setup_s", Percentile(Sorted(setup_s_), 50), "s", setup_s_.size());
  Put("peak_rss_mb", peak, "MiB", 1);

  // Printed for reading, not gated: they did not repeat within a tenth.
  if (auto tail = TailPercentile(reads)) {
    context_["read_tail"] = "p" + JsonNumber(tail->percentile) + " " +
                            JsonNumber(tail->value) + " ms";
  }
  context_["read_p90_ms"] = JsonNumber(Percentile(reads, 90));
  context_["throughput_ops_per_s"] =
      JsonNumber(static_cast<double>(ops) / w.wall_s);
  // Commit latency follows the host's speed of the moment the maintenance
  // phase runs in; it is a per-layer metric (storage.commit_p50_ms).
  context_["commit_p50_ms"] = JsonNumber(Percentile(commits, 50));
  if (auto tail = TailPercentile(commits)) {
    context_["commit_tail"] = "p" + JsonNumber(tail->percentile) + " " +
                              JsonNumber(tail->value) + " ms";
  }
  // The reply checks run on the client thread inside the CPU window; their
  // share of cpu_ms_per_op is stated so the dilution is known.
  context_["oracle_cpu_ms_per_op"] =
      JsonNumber(w.oracle_cpu_ms / std::max<double>(1.0, ops));
  context_["oracle_share_of_cpu"] =
      JsonNumber(w.oracle_cpu_ms / std::max(1e-9, w.cpu_ms));
  context_["window_s"] = JsonNumber(w.wall_s);
  context_["read_p50_ms_per_second"] = PerSecondMedians(w);
  context_["reads_ok"] = std::to_string(w.reads_ok);
  context_["commits_ok"] = std::to_string(w.commits_ok);
  context_["wal_bytes_total"] = std::to_string(w.wal_bytes);
  context_["recovery_ms"] = JsonNumber(recovery_ms);
  return reopen_ok;
}

/// --trace 1: a window in which every other request is traced, then the
/// in-process replay and the write-path probes. Returns the reopen verdict.
bool Run::PerLayer(OpTally* tally) {
  Tracer tracer;
  Warmup(tally);
  auto stats0 = fx_.client->Stats();
  dv::PlanCacheStats pc0 = fx_.system->plan_cache_stats();
  WindowStats w = Window(opt_.seconds, -1, &tracer);
  auto stats1 = fx_.client->Stats();
  dv::PlanCacheStats pc1 = fx_.system->plan_cache_stats();
  tally->Merge(w.tally);

  const size_t n_reads = w.read_ms.size() + w.traced_read_ms.size();
  const double reqs = std::max<double>(1.0, static_cast<double>(n_reads));
  const double untraced = Percentile(Sorted(w.read_ms), 50);
  const double traced = Percentile(Sorted(w.traced_read_ms), 50);
  Put("observe.trace_overhead_frac", (traced - untraced) / untraced, "ratio",
      n_reads);
  Put("server.queue_ms.p50", Percentile(Sorted(w.queue_ms), 50), "ms",
      w.queue_ms.size());
  Put("server.overhead_ms.p50", Percentile(Sorted(w.overhead_ms), 50), "ms",
      w.overhead_ms.size());
  auto stat = [](const decltype(stats0)& s, const char* key) -> double {
    if (!s.ok()) return 0;
    auto it = s.value().stats.find(key);
    return it == s.value().stats.end() ? 0 : static_cast<double>(it->second);
  };
  Put("server.bytes_per_reply",
      (stat(stats1, dv::counters::kServerBytesSent) -
       stat(stats0, dv::counters::kServerBytesSent)) / reqs,
      "bytes", n_reads);
  Put("server.chunks_per_reply",
      (stat(stats1, dv::counters::kServerChunksSent) -
       stat(stats0, dv::counters::kServerChunksSent)) / reqs,
      "count", n_reads);
  const double hits = static_cast<double>(pc1.hits - pc0.hits);
  const double misses = static_cast<double>(pc1.misses - pc0.misses);
  Put("plan_cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio",
      static_cast<size_t>(hits + misses));
  Put("plan_cache.evictions_per_req",
      static_cast<double>(pc1.evictions - pc0.evictions) / reqs, "count",
      n_reads);
  Put("plan_cache.invalidations_per_req",
      static_cast<double>(pc1.invalidations - pc0.invalidations) / reqs,
      "count", n_reads);

  Replay(&tracer, tally);

  std::vector<double> delta = TwinDeltaProbe();
  Put("schemasql.delta_ms.p50", Percentile(Sorted(delta), 50), "ms",
      delta.size());
  Put("schemasql.materialize_ms", Percentile(Sorted(materialize_ms_), 50),
      "ms", materialize_ms_.size());

  WindowStats maint;
  MaintenancePhase(&maint, &tracer);
  tally->Merge(maint.tally);
  Put("storage.commit_p50_ms", Percentile(Sorted(maint.commit_ms), 50), "ms",
      maint.commit_ms.size());
  Put("storage.wal_bytes_per_commit",
      static_cast<double>(maint.wal_bytes) /
          std::max<double>(1.0, maint.commits_ok),
      "bytes", maint.commits_ok);
  Put("storage.checkpoint_ms", Percentile(Sorted(checkpoint_ms_), 50), "ms",
      checkpoint_ms_.size());
  std::vector<double> mutate = MutateProbe();
  Put("relational.mutate_ms.p50", Percentile(Sorted(mutate), 50), "ms",
      mutate.size());
  double recovery_ms = 0;
  const bool reopen_ok = ReopenCheck(&recovery_ms);
  Put("storage.recovery_ms", recovery_ms, "ms", 1);
  context_["wal_bytes_total"] = std::to_string(maint.wal_bytes);
  tracer.WriteJsonLines(Path("results/" + RunTag() + "-spans.jsonl"));
  return reopen_ok;
}

int Run::Main() {
  std::filesystem::create_directories(Path("results"));
  Setup();
  OpTally tally;
  const bool reopen_ok = opt_.trace ? PerLayer(&tally) : EndToEnd(&tally);

  context_["workload"] = spec_.name;
  context_["seed"] = std::to_string(opt_.seed);
  context_["mode"] = opt_.trace ? "traced (per-layer metrics)"
                                : "untraced (end-to-end metrics)";
  context_["nproc"] = std::to_string(std::thread::hardware_concurrency());
  context_["build_type"] = PERFBENCH_BUILD_TYPE;
  context_["commit"] = opt_.commit;
  context_["config"] =
      "default ExecConfig, ServerOptions and DurabilityOptions";
  context_["load"] = "1 client thread, closed loop, 1 session";
  context_["flush_policy"] =
      "none while reading; WAL fsync per commit in the maintenance phase "
      "after the window";
  context_["data"] = std::to_string(spec_.companies) + " companies x " +
                     std::to_string(spec_.dates) + " dates = " +
                     std::to_string(spec_.companies * spec_.dates) + " rows";
  context_["texts"] = std::to_string(texts_.size());
  context_["timed_window_s"] = JsonNumber(opt_.seconds);
  context_["reopen_check"] = reopen_ok ? "pass" : "FAIL";
  context_["failed"] = tally.Describe();

  const bool correct = reopen_ok && tally.failed() == 0;
  std::string samples = "{";
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted()) +
                       ", \"failed\": " + std::to_string(tally.failed()) +
                       ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) {
      result += ", ";
      samples += ", ";
    }
    first = false;
    result += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    samples += JsonString(name) + ": " + std::to_string(m.n);
  }
  result += "}}";
  samples += "}";
  std::string ctx = "{";
  first = true;
  for (const auto& [k, v] : context_) {
    if (!first) ctx += ", ";
    first = false;
    ctx += JsonString(k) + ": " + JsonString(v);
  }
  ctx += "}";

  std::string report = "{\"context\": " + ctx + ", \"samples\": " + samples +
                       ", \"result\": " + result + "}\n";
  if (std::FILE* f = std::fopen(Path("results/" + RunTag() + ".json").c_str(),
                                "w")) {
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("%-38s %14.6f %-6s n=%zu\n", name.c_str(), m.value, m.unit,
                m.n);
  }
  std::printf("{\"context\": %s, \"samples\": %s}\n", ctx.c_str(),
              samples.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

int ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (val == w.name) opt->spec = &w;
      }
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else if (key == "--out-dir") {
      opt->out_dir = val;
    } else if (key == "--commit") {
      opt->commit = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 1;
    }
  }
  if (opt->spec == nullptr || !(opt->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: dynview_bench --workload <served_fanout|served_point> "
                 "--seed N --seconds S --trace 0|1\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (int rc = perfbench::ParseArgs(argc, argv, &opt); rc != 0) return rc;
  return perfbench::Run(opt).Main();
}
