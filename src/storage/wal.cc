#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "storage/codec.h"

namespace dynview {

namespace {

// Type 1 was the retired whole-database commit record; it is not read.
constexpr uint8_t kRecordBlob = 2;
constexpr uint8_t kRecordCommit = 3;

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string FrameRecord(const std::string& payload) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  w.Raw(payload.data(), payload.size());
  return w.Take();
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   bool fsync_each) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::Internal(Errno("open", path));
  return std::unique_ptr<WalWriter>(new WalWriter(fd, path, fsync_each));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::AppendRecord(const std::string& payload,
                               const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Unavailable(
        "WAL " + path_ +
        " is fail-stop after an ambiguous append; recover before writing");
  }
  // Clean abort: checked before any byte reaches the file, so the log is
  // exactly as if this commit never happened.
  DV_RETURN_IF_ERROR(FailPoints::Check("wal.append", detail));

  const std::string frame = FrameRecord(payload);

  int64_t keep = FailPoints::CheckTornWrite("wal.append", detail);
  if (keep >= 0) {
    // Simulated crash mid-append: persist a prefix of the frame, then die.
    size_t partial = std::min(static_cast<size_t>(keep), frame.size());
    Status st = WriteAll(fd_, frame.data(), partial, path_);
    if (st.ok()) ::fsync(fd_);
    broken_ = true;
    return Status::Unavailable("WAL " + path_ + ": torn write injected (" +
                               std::to_string(partial) + " of " +
                               std::to_string(frame.size()) +
                               " bytes persisted)");
  }

  Status st = WriteAll(fd_, frame.data(), frame.size(), path_);
  if (!st.ok()) {
    // The frame may be partially on disk: ambiguous, so fail-stop.
    broken_ = true;
    return st;
  }
  if (fsync_each_ && ::fsync(fd_) != 0) {
    broken_ = true;
    return Status::Internal(Errno("fsync", path_));
  }
  // Crash window under test: the record is durable but the head has not
  // swapped. An injected failure aborts the commit, yet recovery replays
  // the record — callers observing the error must treat the operation as
  // "unknown outcome", exactly like a process kill here.
  Status fsync_fp = FailPoints::Check("wal.fsync", detail);
  if (!fsync_fp.ok()) {
    broken_ = true;
    return fsync_fp;
  }
  ++appends_;
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::OnCommit(const CatalogChange& change,
                           const std::string& tag) {
  // Cells intern their strings while the body is written; the dictionary
  // then goes in front of it (a reader decodes strictly forward).
  StringDict dict;
  ByteWriter body;
  body.U32(static_cast<uint32_t>(change.databases.size()));
  for (const DatabaseChange& db : change.databases) {
    body.Str(db.name);
    body.U8(static_cast<uint8_t>(db.kind));
    body.U32(static_cast<uint32_t>(db.tables.size()));
    for (const TableChange& t : db.tables) {
      body.U8(static_cast<uint8_t>(t.kind));
      body.Str(t.name);
      switch (t.kind) {
        case TableChange::Kind::kPut:
          EncodeTablePayload(*t.table, &dict, &body);
          break;
        case TableChange::Kind::kAppend: {
          const size_t ncols = t.rows.empty() ? 0 : t.rows.front().size();
          body.U64(t.base_rows);
          body.U32(static_cast<uint32_t>(ncols));
          EncodeRows(t.rows, ncols, &dict, &body);
          break;
        }
        case TableChange::Kind::kDrop:
          break;
      }
    }
  }
  ByteWriter w;
  w.U8(kRecordCommit);
  w.U64(change.version);
  w.Str(tag);
  EncodeStringDict(dict, &w);
  w.Raw(body.buffer().data(), body.size());
  return AppendRecord(w.buffer(), tag);
}

Status WalWriter::AppendBlob(const std::string& kind,
                             const std::string& payload,
                             uint64_t catalog_version) {
  ByteWriter w;
  w.U8(kRecordBlob);
  w.U64(catalog_version);
  w.Str(kind);
  w.Str(payload);
  return AppendRecord(w.buffer(), kind);
}

Status WalWriter::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal(Errno("ftruncate", path_));
  }
  if (fsync_each_ && ::fsync(fd_) != 0) {
    return Status::Internal(Errno("fsync", path_));
  }
  broken_ = false;  // The ambiguous suffix (if any) is gone with the log.
  return Status::OK();
}

bool WalWriter::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

uint64_t WalWriter::appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

uint64_t WalWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

namespace {

Status DecodeTableChange(ByteReader* r, const std::vector<std::string>& dict,
                         TableChange* t) {
  uint8_t kind = 0;
  DV_RETURN_IF_ERROR(r->U8(&kind));
  DV_RETURN_IF_ERROR(r->Str(&t->name));
  switch (kind) {
    case static_cast<uint8_t>(TableChange::Kind::kPut): {
      t->kind = TableChange::Kind::kPut;
      DV_ASSIGN_OR_RETURN(Table table, DecodeTablePayload(r, dict));
      t->table = std::make_shared<const Table>(std::move(table));
      return Status::OK();
    }
    case static_cast<uint8_t>(TableChange::Kind::kAppend): {
      t->kind = TableChange::Kind::kAppend;
      uint32_t ncols = 0;
      DV_RETURN_IF_ERROR(r->U64(&t->base_rows));
      DV_RETURN_IF_ERROR(r->U32(&ncols));
      // Each column is at least a u32 page length.
      DV_RETURN_IF_ERROR(r->CheckCount(ncols, 4, "columns"));
      DV_ASSIGN_OR_RETURN(t->rows, DecodeRows(r, ncols, dict));
      return Status::OK();
    }
    case static_cast<uint8_t>(TableChange::Kind::kDrop):
      t->kind = TableChange::Kind::kDrop;
      return Status::OK();
    default:
      return Status::ParseError("unknown table change kind " +
                                std::to_string(kind));
  }
}

Status DecodeCommitPayload(ByteReader* r, WalCommitRecord* rec) {
  CatalogChange& change = rec->change;
  DV_RETURN_IF_ERROR(r->U64(&change.version));
  DV_RETURN_IF_ERROR(r->Str(&rec->tag));
  std::vector<std::string> dict;
  DV_RETURN_IF_ERROR(DecodeStringDict(r, &dict));
  uint32_t ndbs = 0;
  DV_RETURN_IF_ERROR(r->U32(&ndbs));
  // Per database: a u32 name length, a u8 kind and a u32 change count.
  DV_RETURN_IF_ERROR(r->CheckCount(ndbs, 9, "databases"));
  change.databases.resize(ndbs);
  for (DatabaseChange& db : change.databases) {
    DV_RETURN_IF_ERROR(r->Str(&db.name));
    uint8_t kind = 0;
    DV_RETURN_IF_ERROR(r->U8(&kind));
    if (kind > static_cast<uint8_t>(DatabaseChange::Kind::kDrop)) {
      return Status::ParseError("unknown database change kind " +
                                std::to_string(kind));
    }
    db.kind = static_cast<DatabaseChange::Kind>(kind);
    uint32_t ntables = 0;
    DV_RETURN_IF_ERROR(r->U32(&ntables));
    // Per table change: a u8 kind and a u32 name length.
    DV_RETURN_IF_ERROR(r->CheckCount(ntables, 5, "table changes"));
    if (db.kind == DatabaseChange::Kind::kDrop && ntables != 0) {
      return Status::ParseError("dropped database '" + db.name +
                                "' carries table changes");
    }
    db.tables.resize(ntables);
    for (TableChange& t : db.tables) {
      DV_RETURN_IF_ERROR(DecodeTableChange(r, dict, &t));
    }
  }
  if (!r->AtEnd()) {
    return Status::ParseError(std::to_string(r->remaining()) +
                              " trailing byte(s) after the commit record");
  }
  return Status::OK();
}

}  // namespace

Status ReplayWal(const std::string& path, uint64_t snapshot_version,
                 const std::function<Status(WalCommitRecord&&)>& on_commit,
                 const std::function<Status(WalBlobRecord&&)>& on_blob,
                 WalReplayStats* stats) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      if (stats != nullptr) stats->missing = true;
      return Status::OK();
    }
    return Status::Internal(Errno("open", path));
  }
  std::string log;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Internal(Errno("read", path));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    log.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t pos = 0;
  bool torn = false;
  while (pos < log.size()) {
    ByteReader frame(log.data() + pos, log.size() - pos);
    uint32_t len = 0;
    uint32_t crc = 0;
    // An empty payload is torn too: no record is empty, and a zero-filled
    // tail (what a crash can leave after a file grew) has a matching CRC.
    if (!frame.U32(&len).ok() || !frame.U32(&crc).ok() ||
        frame.remaining() < len || len == 0) {
      torn = true;
      break;
    }
    const char* payload = log.data() + pos + 8;
    if (crc != Crc32(payload, static_cast<size_t>(len))) {
      torn = true;
      break;
    }
    // From here on the frame is exactly what a writer appended: failing to
    // read it is corruption or a format this build does not read, never a
    // torn write, so it is refused and nothing is truncated.
    const std::string where =
        "WAL " + path + ": record at byte offset " + std::to_string(pos);
    ByteReader r(payload, len);
    uint8_t type = 0;
    DV_RETURN_IF_ERROR(r.U8(&type));
    if (type == kRecordCommit) {
      WalCommitRecord rec;
      Status decoded = DecodeCommitPayload(&r, &rec);
      if (!decoded.ok()) {
        return Status::DataLoss(where + " does not decode: " +
                                decoded.message());
      }
      if (rec.change.version <= snapshot_version) {
        if (stats != nullptr) ++stats->skipped_records;
      } else {
        if (stats != nullptr) ++stats->commit_records;
        if (on_commit) {
          Status st = on_commit(std::move(rec));
          if (!st.ok()) return Status(st.code(), where + ": " + st.message());
        }
      }
    } else if (type == kRecordBlob) {
      WalBlobRecord rec;
      if (!r.U64(&rec.version).ok() || !r.Str(&rec.kind).ok() ||
          !r.Str(&rec.payload).ok()) {
        return Status::DataLoss(where + ": blob record does not decode");
      }
      // Blobs use >=, not >: a blob appended right after a checkpoint at
      // version V (no commit in between) is stamped V but is NOT in that
      // snapshot's extras — the checkpoint truncated the WAL before the
      // append (AppendBlob and Checkpoint serialize on ckpt_mu_), so any
      // blob still in the log postdates the snapshot.
      if (rec.version < snapshot_version || !on_blob) {
        if (stats != nullptr) ++stats->skipped_records;
      } else {
        if (stats != nullptr) ++stats->blob_records;
        DV_RETURN_IF_ERROR(on_blob(std::move(rec)));
      }
    } else {
      return Status::DataLoss(where + " has unknown record type " +
                              std::to_string(type) +
                              (type == 1 ? " (the retired whole-database "
                                           "commit format)"
                                         : ""));
    }
    pos += 8 + len;
  }

  if (torn) {
    if (stats != nullptr) {
      stats->torn_tail = true;
      stats->torn_bytes = log.size() - pos;
    }
    // Truncate the tail so the next recovery (and any append that follows)
    // sees a log that ends exactly at the last good record.
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::Internal(Errno("truncate", path));
    }
  }
  return Status::OK();
}

}  // namespace dynview
