// The benchmark's own data and its correctness oracle. Nothing here calls
// the program under test: the stock federation is generated from the seed,
// each query text is described by the predicate it applies, and expected
// answers are computed from the generated rows. A reply is checked by
// hashing each of its typed-CSV row lines and comparing the multiset of
// hashes with that of the expected rows rendered the same way.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Ymd {
  int year = 0;
  int month = 0;
  int day = 0;
};

/// Proleptic Gregorian date of `offset` days after 1998-01-01.
inline Ymd DateOfOffset(int offset) {
  // Days from 1970-01-01 to 1998-01-01 is 10227; civil-from-days after
  // H. Hinnant's algorithm.
  int64_t z = 10227 + offset + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = yoe + era * 400;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  int64_t d = doy - (153 * mp + 2) / 5 + 1;
  int64_t m = mp < 10 ? mp + 3 : mp - 9;
  return {static_cast<int>(y + (m <= 2)), static_cast<int>(m),
          static_cast<int>(d)};
}

inline std::string DateString(int offset) {
  Ymd d = DateOfOffset(offset);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

/// "co000", "co001", ...: fixed width, so reply sizes do not depend on
/// which companies a text selects.
inline std::string CompanyName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "co%03d", i);
  return buf;
}

inline constexpr int64_t kMinPrice = 100;
inline constexpr int64_t kMaxPrice = 1000;  // Exclusive; prices have 3 digits.

struct StockRow {
  int day = 0;  // Offset from 1998-01-01.
  int64_t price = 0;
};

/// stock(company, date, price): one row per (company, date) plus the rows a
/// run inserts later. `rows[c]` holds company c's rows.
struct Dataset {
  std::vector<std::string> names;
  std::vector<std::vector<StockRow>> rows;
  int dates = 0;

  static Dataset Generate(uint64_t seed, int companies, int dates) {
    Dataset ds;
    ds.dates = dates;
    Rng rng(seed * 0x100000001b3ull + 17);
    for (int c = 0; c < companies; ++c) {
      ds.names.push_back(CompanyName(c));
      std::vector<StockRow> rows;
      rows.reserve(static_cast<size_t>(dates));
      for (int d = 0; d < dates; ++d) {
        rows.push_back(
            {d, kMinPrice + static_cast<int64_t>(
                                rng.Below(kMaxPrice - kMinPrice))});
      }
      ds.rows.push_back(std::move(rows));
    }
    return ds;
  }
};

/// One query text and the predicate it applies, in the oracle's terms:
/// rows of `company` (all companies when -1) with price in
/// [price_lo, price_hi) and date offset in [day_lo, day_hi). Every text
/// returns the columns (company, date, price).
struct QuerySpec {
  std::string sql;
  int company = -1;
  int64_t price_lo = std::numeric_limits<int64_t>::min();
  int64_t price_hi = std::numeric_limits<int64_t>::max();
  int day_lo = std::numeric_limits<int>::min();
  int day_hi = std::numeric_limits<int>::max();

  bool Matches(const StockRow& r) const {
    return r.price >= price_lo && r.price < price_hi && r.day >= day_lo &&
           r.day < day_hi;
  }
};

/// Order-independent digest of a bag of rows, each given as its typed-CSV
/// line without the newline.
struct RowDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;  // Sum of a second mix, so two bags rarely collide.

  bool operator==(const RowDigest&) const = default;
};

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Hash of one line, eight bytes at a time.
inline uint64_t HashLine(std::string_view s) {
  uint64_t h = Mix64(s.size() + 0x51ed270b27a5u);
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = Mix64(h ^ w);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return Mix64(h ^ tail ^ 0x9e3779b97f4a7c15ull);
}

inline void AddLine(RowDigest* d, std::string_view line) {
  const uint64_t h = HashLine(line);
  d->count += 1;
  d->sum += h;
  d->sum_sq += Mix64(h ^ 0x2545f4914f6cdd1dull);
}

/// One row as its typed-CSV line, newline included: strings quoted, the
/// date as YYYY-MM-DD, the price as an integer. Also the user bytes an
/// insert carries.
inline std::string RowCsvLine(const std::string& company, const StockRow& r) {
  return "\"" + company + "\"," + DateString(r.day) + "," +
         std::to_string(r.price) + "\n";
}

/// The digest a correct reply to `q` over `ds` has.
inline RowDigest ExpectedDigest(const Dataset& ds, const QuerySpec& q) {
  RowDigest d;
  int first = q.company < 0 ? 0 : q.company;
  int last = q.company < 0 ? static_cast<int>(ds.rows.size()) : q.company + 1;
  for (int c = first; c < last; ++c) {
    for (const StockRow& r : ds.rows[static_cast<size_t>(c)]) {
      if (!q.Matches(r)) continue;
      const std::string line = RowCsvLine(ds.names[static_cast<size_t>(c)], r);
      AddLine(&d, std::string_view(line).substr(0, line.size() - 1));
    }
  }
  return d;
}

/// Digest of a typed-CSV reply: a header line, then one row per line. Rows
/// are hashed as they stand, so a row that differs from the expected
/// rendering in any byte (a changed value, other quoting, a missing or
/// extra field) changes the digest. False when there is no header.
inline bool DigestReply(std::string_view csv, RowDigest* out) {
  *out = RowDigest{};
  size_t nl = csv.find('\n');
  if (nl == std::string_view::npos) return false;
  size_t pos = nl + 1;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) end = csv.size();
    AddLine(out, csv.substr(pos, end - pos));
    pos = end + 1;
  }
  return true;
}

/// The oracle's verdict on one reply.
inline bool ReplyMatches(std::string_view csv, const RowDigest& expected) {
  RowDigest got;
  return DigestReply(csv, &got) && got == expected;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
