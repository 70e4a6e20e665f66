// Order statistics and operation accounting for the served-query benchmark.
// Header-only so the helper tests link nothing but this file.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least p% of the sample at or below it. `p` in (0, 100]. Empty → 0.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The highest percentile a sample supports: the one with at least ten
/// samples beyond it. For n samples that is rank n-10, i.e. percentile
/// 100*(n-10)/n. Absent when n < 11.
struct TailPoint {
  double percentile = 0.0;
  double value = 0.0;
};

inline std::optional<TailPoint> TailPercentile(
    const std::vector<double>& sorted) {
  constexpr size_t kBeyond = 10;
  if (sorted.size() <= kBeyond) return std::nullopt;
  size_t rank = sorted.size() - kBeyond;  // 1-based.
  return TailPoint{100.0 * static_cast<double>(rank) /
                       static_cast<double>(sorted.size()),
                   sorted[rank - 1]};
}

/// Ascending copy (percentile helpers take sorted input).
inline std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// How one attempted operation ended. Everything but kOk is a failure.
enum class Outcome { kOk, kShed, kError, kTransport, kWrongAnswer, kCommitFailed };

/// Classifies one served read from what the client saw: whether the
/// round trip completed, the reply's status, whether the reply was a shed
/// (it carries a retry-after), and the oracle's verdict on its rows.
inline Outcome ClassifyRead(bool transport_ok, bool status_ok,
                            bool shed, bool rows_match) {
  if (!transport_ok) return Outcome::kTransport;
  if (shed) return Outcome::kShed;
  if (!status_ok) return Outcome::kError;
  if (!rows_match) return Outcome::kWrongAnswer;
  return Outcome::kOk;
}

/// Failed operations counted against operations attempted.
class OpTally {
 public:
  void Record(Outcome o) { ++counts_[static_cast<size_t>(o)]; }

  uint64_t count(Outcome o) const { return counts_[static_cast<size_t>(o)]; }
  uint64_t attempted() const {
    uint64_t total = 0;
    for (uint64_t c : counts_) total += c;
    return total;
  }
  uint64_t ok() const { return count(Outcome::kOk); }
  uint64_t failed() const { return attempted() - ok(); }

  void Merge(const OpTally& other) {
    for (size_t i = 0; i < kOutcomes; ++i) counts_[i] += other.counts_[i];
  }

  /// "0 of 1234 (shed 0, error 0, transport 0, wrong 0, commit 0)".
  std::string Describe() const {
    return std::to_string(failed()) + " of " + std::to_string(attempted()) +
           " (shed " + std::to_string(count(Outcome::kShed)) + ", error " +
           std::to_string(count(Outcome::kError)) + ", transport " +
           std::to_string(count(Outcome::kTransport)) + ", wrong " +
           std::to_string(count(Outcome::kWrongAnswer)) + ", commit " +
           std::to_string(count(Outcome::kCommitFailed)) + ")";
  }

 private:
  static constexpr size_t kOutcomes = 6;
  uint64_t counts_[kOutcomes] = {};
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
