#ifndef DYNVIEW_STORAGE_WAL_H_
#define DYNVIEW_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"

namespace dynview {

/// Write-ahead delta log for the catalog.
///
/// Record framing: u32 payload_len | u32 crc32(payload) | payload, appended
/// back to back. Payloads (storage/codec.h primitives):
///
///   commit (u8 3): u64 catalog_version | str tag | string dictionary
///                  | u32 database_count | per database: str name
///                    | u8 kind (0 modify, 1 create, 2 drop)
///                    | u32 table_change_count | per table change:
///                      u8 kind | str relation name | then
///                        put (1):    table payload (schema + rows)
///                        append (2): u64 base_rows | u32 column_count | rows
///                        drop (3):   nothing
///   blob   (u8 2): u64 catalog_version_at_append | str kind | str payload
///
/// A commit record is the CatalogChange that Catalog::Mutate derived for
/// the commit: per touched database, only the tables it changed — an append
/// logs just the new rows and the row count it extends, anything else the
/// whole table, a drop only the name. A touched database whose tables did
/// not change is listed with no table changes so replay still bumps its
/// version. Strings of all cells share the record's one dictionary. Record
/// type 1 (a retired format that logged touched databases in full) is not
/// read: replay refuses it like any unknown type.
///
/// Blob records carry opaque integration state
/// (view/index registrations) stamped with the catalog version current when
/// appended; replay applies a blob iff its stamp is at least the snapshot
/// version being recovered from (a blob cannot ride the WAL past the
/// checkpoint that would have captured it — Truncate removes it — so a
/// stamp equal to the snapshot version means "appended just after that
/// checkpoint, with no commit in between").
///
/// Durability contract: Append fsyncs (when enabled) BEFORE returning OK,
/// and the catalog publishes the new head only after that — the WAL fsync
/// is the commit point. If a record may have reached the disk but the
/// append did not return OK (torn write, failed/injected fsync), the writer
/// turns fail-stop: every later append returns Unavailable until the log is
/// recovered. That keeps the on-disk prefix unambiguous.
///
/// Failpoints (detail = commit tag or blob kind):
///   wal.append — checked before any byte is written: clean abort.
///   wal.append in torn-write(K) mode — persists only the first K bytes of
///     the frame, then fails and goes fail-stop: a simulated crash
///     mid-write. Recovery truncates the torn tail.
///   wal.fsync  — checked after the real fsync: the record IS durable but
///     the commit aborts, simulating a crash between append and head swap.
///     Recovery must include this record.

class WalWriter final : public CatalogCommitSink {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 bool fsync_each);
  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// CatalogCommitSink: appends the commit's change as one record.
  Status OnCommit(const CatalogChange& change,
                  const std::string& tag) override;

  Status AppendBlob(const std::string& kind, const std::string& payload,
                    uint64_t catalog_version);

  /// Checkpoint: drops every record (the snapshot now covers them).
  Status Truncate();

  bool broken() const;
  uint64_t appends() const;
  uint64_t bytes_written() const;

 private:
  WalWriter(int fd, std::string path, bool fsync_each)
      : fd_(fd), path_(std::move(path)), fsync_each_(fsync_each) {}

  Status AppendRecord(const std::string& payload, const std::string& detail);

  mutable std::mutex mu_;
  int fd_;
  std::string path_;
  bool fsync_each_;
  bool broken_ = false;
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
};

struct WalCommitRecord {
  std::string tag;
  CatalogChange change;  // change.version is the commit's version.
};

struct WalBlobRecord {
  uint64_t version = 0;
  std::string kind;
  std::string payload;
};

struct WalReplayStats {
  uint64_t commit_records = 0;   // delivered to on_commit
  uint64_t blob_records = 0;     // delivered to on_blob
  uint64_t skipped_records = 0;  // at or below the snapshot version
  bool torn_tail = false;
  uint64_t torn_bytes = 0;  // bytes truncated off the tail
  bool missing = false;     // no WAL file at all (fresh directory)
};

/// Replays `path` in append order. Records with version <= snapshot_version
/// are counted as skipped (the snapshot already covers them). The first
/// frame that is short, empty, or fails its CRC marks a torn tail: the file
/// is truncated back to the last good record and replay stops with OK — a
/// partial tail is an expected crash artifact, never an error. A frame
/// whose CRC matches but which does not decode (an unknown record type, a
/// retired format, a corrupt count) cannot come from a torn write: replay
/// returns DataLoss naming its byte offset and leaves the file untouched.
/// Errors returned by the callbacks abort the replay and propagate (a
/// commit callback's error prefixed with the record's byte offset).
Status ReplayWal(const std::string& path, uint64_t snapshot_version,
                 const std::function<Status(WalCommitRecord&&)>& on_commit,
                 const std::function<Status(WalBlobRecord&&)>& on_blob,
                 WalReplayStats* stats);

}  // namespace dynview

#endif  // DYNVIEW_STORAGE_WAL_H_
