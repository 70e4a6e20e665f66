#include "relational/catalog.h"

#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/str_util.h"

namespace dynview {

namespace {

// Same kind and the same bits. Value equality is looser (-0.0 equals 0.0,
// INT 1 equals DOUBLE 1.0, NaN equals nothing), and a logged append must
// reproduce the base rows exactly when replayed.
bool SameBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kBool:
      return a.as_bool() == b.as_bool();
    case TypeKind::kInt:
      return a.as_int() == b.as_int();
    case TypeKind::kDouble: {
      const double x = a.as_double();
      const double y = b.as_double();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case TypeKind::kString:
      return a.as_string() == b.as_string();
    case TypeKind::kDate:
      return a.as_date().days_since_epoch() == b.as_date().days_since_epoch();
  }
  return false;
}

bool SameSchema(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).name != b.column(i).name ||
        a.column(i).type != b.column(i).type) {
      return false;
    }
  }
  return true;
}

// True when `next` is `base` with rows appended: same schema and the base
// rows a bit-identical prefix of the next rows.
bool ExtendsWithRows(const Table& base, const Table& next) {
  if (!SameSchema(base.schema(), next.schema()) ||
      base.num_rows() > next.num_rows()) {
    return false;
  }
  for (size_t i = 0; i < base.num_rows(); ++i) {
    const Row& a = base.row(i);
    const Row& b = next.row(i);
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (!SameBits(a[c], b[c])) return false;
    }
  }
  return true;
}

Status ApplyTableChange(const std::string& record, Database* db,
                        TableChange& change) {
  const std::string rel = db->name() + "::" + change.name;
  switch (change.kind) {
    case TableChange::Kind::kPut:
      db->PutTable(change.name, std::move(change.table));
      return Status::OK();
    case TableChange::Kind::kDrop:
      if (!db->DropTable(change.name).ok()) {
        return Status::DataLoss(record + ": drops missing table " + rel);
      }
      return Status::OK();
    case TableChange::Kind::kAppend: {
      Result<const Table*> current = db->GetTable(change.name);
      if (!current.ok()) {
        return Status::DataLoss(record + ": appends to missing table " + rel);
      }
      const size_t have = current.value()->num_rows();
      if (have != change.base_rows) {
        return Status::DataLoss(record + ": append to " + rel + " expects " +
                                std::to_string(change.base_rows) +
                                " base row(s), the table has " +
                                std::to_string(have));
      }
      const size_t arity = current.value()->schema().num_columns();
      for (const Row& r : change.rows) {
        if (r.size() != arity) {
          return Status::DataLoss(record + ": append to " + rel + " carries " +
                                  std::to_string(r.size()) +
                                  "-column rows, the table has " +
                                  std::to_string(arity) + " column(s)");
        }
      }
      Table* t = db->GetMutableTable(change.name).value();
      t->Reserve(have + change.rows.size());
      for (Row& r : change.rows) t->AppendRowUnchecked(std::move(r));
      return Status::OK();
    }
  }
  return Status::DataLoss(record + ": unknown table change kind");
}

}  // namespace

Database::Database(const Database& other)
    : name_(other.name_), tables_(other.tables_) {
  for (auto& [key, entry] : tables_) entry.owned = nullptr;
}

Database& Database::operator=(const Database& other) {
  if (this != &other) *this = Database(other);
  return *this;
}

Status Database::AddTable(const std::string& rel_name, Table table) {
  std::string key = ToLower(rel_name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + rel_name + "' already exists in " +
                                 name_);
  }
  PutTable(rel_name, std::move(table));
  return Status::OK();
}

void Database::PutTable(const std::string& rel_name, Table table) {
  auto owned = std::make_shared<Table>(std::move(table));
  Table* raw = owned.get();
  tables_[ToLower(rel_name)] = Entry{rel_name, std::move(owned), raw};
}

void Database::PutTable(const std::string& rel_name,
                        std::shared_ptr<const Table> table) {
  tables_[ToLower(rel_name)] = Entry{rel_name, std::move(table), nullptr};
}

Status Database::DropTable(const std::string& rel_name) {
  std::string key = ToLower(rel_name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("table '" + rel_name + "' not found in " + name_);
  }
  return Status::OK();
}

bool Database::HasTable(const std::string& rel_name) const {
  return tables_.count(ToLower(rel_name)) > 0;
}

Result<const Table*> Database::GetTable(const std::string& rel_name) const {
  auto it = tables_.find(ToLower(rel_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + rel_name + "' not found in database '" +
                            name_ + "'");
  }
  return it->second.table.get();
}

Result<Table*> Database::GetMutableTable(const std::string& rel_name) {
  auto it = tables_.find(ToLower(rel_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + rel_name + "' not found in database '" +
                            name_ + "'");
  }
  Entry& entry = it->second;
  if (entry.owned == nullptr) {
    // First write through this Database: clone, so the shared original
    // (reachable from published snapshots) is never written.
    auto clone = std::make_shared<Table>(*entry.table);
    entry.owned = clone.get();
    entry.table = std::move(clone);
  }
  return entry.owned;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) names.push_back(entry.name);
  return names;
}

// ---------------------------------------------------------------- Snapshot

uint64_t CatalogSnapshot::DatabaseVersion(const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  return it == entries_.end() ? 0 : it->second.version;
}

bool CatalogSnapshot::HasDatabase(const std::string& db_name) const {
  return entries_.count(ToLower(db_name)) > 0;
}

Result<const Database*> CatalogSnapshot::GetDatabase(
    const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  if (it == entries_.end()) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return it->second.db.get();
}

Result<const Table*> CatalogSnapshot::ResolveTable(
    const std::string& db_name, const std::string& rel_name) const {
  // Fault-injection point for source access: every engine scan and view
  // grounding resolves its base table here, so arming "catalog.resolve"
  // (match "db::rel") simulates that source being slow or unavailable.
  if (FailPoints::AnyArmed()) {  // Skip building the detail string when off.
    DV_RETURN_IF_ERROR(FailPoints::Check(
        "catalog.resolve", ToLower(db_name) + "::" + ToLower(rel_name)));
  }
  DV_ASSIGN_OR_RETURN(const Database* db, GetDatabase(db_name));
  return db->GetTable(rel_name);
}

std::vector<std::string> CatalogSnapshot::DatabaseNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(entry.name);
  return names;
}

// --------------------------------------------------------------------- Txn

CatalogTxn::CatalogTxn(const CatalogSnapshot& base)
    : entries_(base.entries_) {}

bool CatalogTxn::HasDatabase(const std::string& db_name) const {
  return entries_.count(ToLower(db_name)) > 0;
}

Result<const Database*> CatalogTxn::GetDatabase(
    const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  if (it == entries_.end()) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return it->second.db.get();
}

Result<const Table*> CatalogTxn::ResolveTable(
    const std::string& db_name, const std::string& rel_name) const {
  // No failpoint here: transaction-internal reads (read-your-writes) are
  // part of the mutation, whose injection point is `catalog.commit`.
  DV_ASSIGN_OR_RETURN(const Database* db, GetDatabase(db_name));
  return db->GetTable(rel_name);
}

std::vector<std::string> CatalogTxn::DatabaseNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(entry.name);
  return names;
}

Database* CatalogTxn::Own(const std::string& key) {
  auto owned = owned_.find(key);
  if (owned != owned_.end()) return owned->second.get();
  auto it = entries_.find(key);
  auto clone = std::make_shared<Database>(*it->second.db);
  it->second.db = clone;
  owned_[key] = clone;
  touched_.insert(key);
  return clone.get();
}

Result<Database*> CatalogTxn::CreateDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) > 0) {
    return Status::AlreadyExists("database '" + db_name + "' already exists");
  }
  auto db = std::make_shared<Database>(db_name);
  entries_[key] = CatalogSnapshot::Entry{db_name, db, 0};
  owned_[key] = db;
  touched_.insert(key);
  return db.get();
}

Database* CatalogTxn::GetOrCreateDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) == 0) {
    return CreateDatabase(db_name).value();
  }
  return Own(key);
}

Result<Database*> CatalogTxn::GetMutableDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) == 0) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return Own(key);
}

Status CatalogTxn::DropDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.erase(key) == 0) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  owned_.erase(key);
  touched_.insert(key);
  return Status::OK();
}

std::string CatalogTxn::TouchedDetail() const {
  std::string detail;
  for (const std::string& key : touched_) {
    if (!detail.empty()) detail += ",";
    detail += key;
  }
  return detail;
}

std::shared_ptr<const CatalogSnapshot> CatalogTxn::Build(
    uint64_t version, const Catalog* origin) const {
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->entries_ = entries_;
  for (const std::string& key : touched_) {
    auto it = snap->entries_.find(key);
    if (it != snap->entries_.end()) it->second.version = version;
  }
  snap->version_ = version;
  snap->origin_ = origin;
  return snap;
}

// ----------------------------------------------------------------- Catalog

Catalog::Catalog() {
  auto empty = std::make_shared<CatalogSnapshot>();
  empty->origin_ = this;
  Publish(std::move(empty));
}

Result<uint64_t> Catalog::Mutate(
    const std::function<Status(CatalogTxn&)>& fn) {
  return Mutate(fn, "txn");
}

Result<uint64_t> Catalog::Mutate(const std::function<Status(CatalogTxn&)>& fn,
                                 const std::string& tag) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> base = Snapshot();
  CatalogTxn txn(*base);
  DV_RETURN_IF_ERROR(fn(txn));
  if (txn.touched_.empty()) return base->version();  // Read-only transaction.
  uint64_t next = base->version() + 1;
  // Fault-injection point for the commit itself: an injected error aborts
  // the publish, so a chaos run exercises "mutation failed, readers keep the
  // old version" — commit-or-nothing must hold under injection too.
  if (FailPoints::AnyArmed()) {
    DV_RETURN_IF_ERROR(
        FailPoints::Check("catalog.commit", txn.TouchedDetail()));
  }
  // Assemble the new version before taking the head lock: readers are only
  // ever excluded for the duration of one pointer swap.
  std::shared_ptr<const CatalogSnapshot> built = txn.Build(next, this);
  if (sink_ != nullptr) {
    // Durability before visibility: the sink (WAL) must acknowledge the
    // commit — append + fsync — before the head pointer swaps. Its error
    // aborts the commit; readers keep the old version. Without a sink the
    // change is never derived.
    DV_RETURN_IF_ERROR(
        sink_->OnCommit(Diff(*base, *built, txn.touched_), tag));
  }
  Publish(std::move(built));
  return next;
}

void Catalog::SetCommitSink(CatalogCommitSink* sink) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  sink_ = sink;
}

Status Catalog::WithWriterPaused(
    const std::function<Status(const CatalogSnapshot&)>& fn) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> snap = Snapshot();
  return fn(*snap);
}

Status Catalog::InstallRecoveredSnapshot(
    uint64_t version, std::vector<RecoveredDatabase> databases) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Snapshot();
  if (cur->version() != 0 || cur->num_databases() != 0) {
    return Status::InvalidArgument(
        "recovery requires an untouched catalog (version 0, no databases)");
  }
  auto snap = std::make_shared<CatalogSnapshot>();
  for (RecoveredDatabase& rd : databases) {
    std::string key = ToLower(rd.name);
    snap->entries_[key] = CatalogSnapshot::Entry{
        rd.name, std::make_shared<Database>(std::move(rd.db)), rd.version};
  }
  snap->version_ = version;
  snap->origin_ = this;
  Publish(std::move(snap));
  return Status::OK();
}

Status Catalog::ApplyRecoveredCommit(CatalogChange change) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> base = Snapshot();
  const std::string record =
      "replayed commit v" + std::to_string(change.version);
  if (change.version != base->version() + 1) {
    return Status::DataLoss(
        record + " does not follow head v" + std::to_string(base->version()) +
        " (the log does not continue the recovered state)");
  }
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->entries_ = base->entries_;
  for (DatabaseChange& dc : change.databases) {
    const std::string key = ToLower(dc.name);
    auto it = snap->entries_.find(key);
    if (dc.kind == DatabaseChange::Kind::kDrop) {
      if (it == snap->entries_.end()) {
        return Status::DataLoss(record + ": drops missing database '" +
                                dc.name + "'");
      }
      snap->entries_.erase(it);
      continue;
    }
    std::shared_ptr<Database> db;
    if (dc.kind == DatabaseChange::Kind::kCreate) {
      db = std::make_shared<Database>(dc.name);
    } else if (it != snap->entries_.end()) {
      db = std::make_shared<Database>(*it->second.db);
    } else {
      return Status::DataLoss(record + ": modifies missing database '" +
                              dc.name + "'");
    }
    for (TableChange& tc : dc.tables) {
      DV_RETURN_IF_ERROR(ApplyTableChange(record, db.get(), tc));
    }
    snap->entries_[key] =
        CatalogSnapshot::Entry{dc.name, std::move(db), change.version};
  }
  snap->version_ = change.version;
  snap->origin_ = this;
  Publish(std::move(snap));
  return Status::OK();
}

CatalogChange Catalog::Diff(const CatalogSnapshot& base,
                            const CatalogSnapshot& next,
                            const std::set<std::string>& touched) {
  static const Database kEmpty;
  CatalogChange change;
  change.version = next.version();
  for (const std::string& key : touched) {
    auto b = base.entries_.find(key);
    auto n = next.entries_.find(key);
    const bool in_base = b != base.entries_.end();
    if (n == next.entries_.end()) {
      // Created and dropped within the transaction: nothing to log.
      if (in_base) {
        change.databases.push_back(DatabaseChange{
            DatabaseChange::Kind::kDrop, b->second.name, {}});
      }
      continue;
    }
    DatabaseChange dc;
    dc.name = n->second.name;
    const Database* from = &kEmpty;
    if (in_base && b->second.name == n->second.name) {
      dc.kind = DatabaseChange::Kind::kModify;
      from = b->second.db.get();
    } else {
      dc.kind = DatabaseChange::Kind::kCreate;
    }
    const auto& from_tables = from->tables_;
    const auto& next_tables = n->second.db->tables_;
    for (const auto& [rel, entry] : next_tables) {
      auto old = from_tables.find(rel);
      if (old != from_tables.end()) {
        const Database::Entry& was = old->second;
        if (was.table == entry.table) continue;  // Untouched.
        if (was.name == entry.name &&
            ExtendsWithRows(*was.table, *entry.table)) {
          const size_t n_base = was.table->num_rows();
          if (n_base == entry.table->num_rows()) continue;  // Same contents.
          TableChange tc;
          tc.kind = TableChange::Kind::kAppend;
          tc.name = entry.name;
          tc.base_rows = n_base;
          tc.rows.assign(entry.table->rows().begin() +
                             static_cast<std::ptrdiff_t>(n_base),
                         entry.table->rows().end());
          dc.tables.push_back(std::move(tc));
          continue;
        }
      }
      TableChange tc;
      tc.kind = TableChange::Kind::kPut;
      tc.name = entry.name;
      tc.table = entry.table;
      dc.tables.push_back(std::move(tc));
    }
    for (const auto& [rel, entry] : from_tables) {
      if (next_tables.count(rel) > 0) continue;
      TableChange tc;
      tc.kind = TableChange::Kind::kDrop;
      tc.name = entry.name;
      dc.tables.push_back(std::move(tc));
    }
    change.databases.push_back(std::move(dc));
  }
  return change;
}

Status Catalog::CreateDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) {
           return txn.CreateDatabase(db_name).status();
         })
      .status();
}

Status Catalog::EnsureDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) {
           txn.GetOrCreateDatabase(db_name);
           return Status::OK();
         })
      .status();
}

Status Catalog::AddTable(const std::string& db_name,
                         const std::string& rel_name, Table table) {
  return Mutate([&](CatalogTxn& txn) {
           return txn.GetOrCreateDatabase(db_name)->AddTable(
               rel_name, std::move(table));
         })
      .status();
}

Status Catalog::PutTable(const std::string& db_name,
                         const std::string& rel_name, Table table) {
  return Mutate([&](CatalogTxn& txn) {
           txn.GetOrCreateDatabase(db_name)->PutTable(rel_name,
                                                      std::move(table));
           return Status::OK();
         })
      .status();
}

Status Catalog::DropTable(const std::string& db_name,
                          const std::string& rel_name) {
  return Mutate([&](CatalogTxn& txn) -> Status {
           DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(db_name));
           return db->DropTable(rel_name);
         })
      .status();
}

Status Catalog::DropDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) { return txn.DropDatabase(db_name); })
      .status();
}

bool Catalog::HasDatabase(const std::string& db_name) const {
  return Snapshot()->HasDatabase(db_name);
}

Result<const Database*> Catalog::GetDatabase(const std::string& db_name) const {
  // The returned pointer refers into the current version; it stays valid
  // until a later commit touches this database (databases are shared across
  // versions, not copied per commit). Concurrent readers pin Snapshot().
  return Snapshot()->GetDatabase(db_name);
}

Result<const Table*> Catalog::ResolveTable(const std::string& db_name,
                                           const std::string& rel_name) const {
  return Snapshot()->ResolveTable(db_name, rel_name);
}

std::vector<std::string> Catalog::DatabaseNames() const {
  return Snapshot()->DatabaseNames();
}

size_t Catalog::num_databases() const { return Snapshot()->num_databases(); }

}  // namespace dynview
