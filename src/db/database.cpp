#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/thread_pool.h"

namespace nagano::db {

std::string KeyString(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), *i);
    return std::string(buf, end);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

bool TypeMatches(const Value& v, ColumnType type) {
  switch (type) {
    case ColumnType::kInt: return std::holds_alternative<int64_t>(v);
    case ColumnType::kDouble: return std::holds_alternative<double>(v);
    case ColumnType::kString: return std::holds_alternative<std::string>(v);
  }
  return false;
}

Status DatabaseOptions::Validate() const {
  if (shards == 0) {
    return InvalidArgumentError("DatabaseOptions.shards must be >= 1");
  }
  if (wal != nullptr && !shard_wals.empty()) {
    return InvalidArgumentError(
        "DatabaseOptions: set wal or shard_wals, not both");
  }
  if (wal != nullptr && shards != 1) {
    return InvalidArgumentError(
        "DatabaseOptions: the single-stream wal field requires shards == 1; "
        "sharded stores take one stream per shard via shard_wals");
  }
  if (!shard_wals.empty()) {
    if (shard_wals.size() != shards) {
      return InvalidArgumentError(
          "DatabaseOptions: shard_wals.size() must equal shards");
    }
    for (const auto* w : shard_wals) {
      if (w == nullptr) {
        return InvalidArgumentError("DatabaseOptions: null entry in shard_wals");
      }
    }
  }
  return Status::Ok();
}

Database::Database(DatabaseOptions options)
    : clock_(options.clock ? options.clock : &RealClock::Instance()),
      faults_(options.faults),
      shard_map_(options.shard_map),
      retention_(options.change_log_retention),
      recovery_threads_(options.recovery_threads) {
  ValidateOrDie(options, "DatabaseOptions");
  if (shard_map_ == nullptr) {
    // Aliasing a function-local static: no ownership, never destroyed.
    shard_map_ = std::shared_ptr<const ShardMap>(std::shared_ptr<void>(),
                                                 &HashShardMap::Instance());
  }
  shards_.reserve(options.shards);
  for (size_t k = 0; k < options.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    if (!options.shard_wals.empty()) {
      shard->wal = options.shard_wals[k];
    } else if (options.wal != nullptr) {
      shard->wal = options.wal;  // shards == 1, enforced by Validate()
    }
    shards_.push_back(std::move(shard));
  }
  const auto scope = metrics::Scope::Resolve(options.metrics, "db");
  instance_ = scope.labels.empty() ? std::string() : scope.labels[0].second;
  commits_ = scope.GetCounter("nagano_db_commits_total",
                              "mutations appended to the change log");
  recovered_records_ =
      scope.GetCounter("nagano_db_recovered_records_total",
                       "change records replayed from the WAL by Recover()");
  recovery_ms_ = scope.GetHistogram("nagano_db_recovery_duration_ms",
                                    "wall time spent rebuilding state in "
                                    "Recover() (checkpoint load + replay)");
}

// --- WAL payload codec ------------------------------------------------------

namespace {

// Shared locks on every shard of `shards`, taken in ascending order (the
// global lock order) and released together. Unlike a vector of
// std::shared_lock it allocates nothing, which matters on the render path.
template <typename Shards>
class SharedLockAll {
 public:
  explicit SharedLockAll(const Shards& shards) : shards_(shards) {
    for (const auto& shard : shards_) shard->mutex.lock_shared();
  }
  ~SharedLockAll() {
    for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
      (*it)->mutex.unlock_shared();
    }
  }
  SharedLockAll(const SharedLockAll&) = delete;
  SharedLockAll& operator=(const SharedLockAll&) = delete;

 private:
  const Shards& shards_;
};

void EncodeValue(wal::Encoder& e, const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) {
    e.PutU8(0);
    e.PutI64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    e.PutU8(1);
    e.PutDouble(*d);
  } else {
    e.PutU8(2);
    e.PutString(std::get<std::string>(v));
  }
}

bool DecodeValue(wal::Decoder& d, Value* out) {
  switch (d.GetU8()) {
    case 0: *out = d.GetI64(); break;
    case 1: *out = d.GetDouble(); break;
    case 2: *out = d.GetString(); break;
    default: return false;
  }
  return d.ok();
}

void EncodeRow(wal::Encoder& e, const Row& row) {
  e.PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(e, v);
}

bool DecodeRow(wal::Decoder& d, Row* out) {
  const uint32_t arity = d.GetU32();
  if (!d.ok() || arity > 4096) return false;
  out->clear();
  out->reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    Value v;
    if (!DecodeValue(d, &v)) return false;
    out->push_back(std::move(v));
  }
  return true;
}

}  // namespace

std::string EncodeWalChange(const ChangeRecord& change) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kChange));
  e.PutU64(change.seqno);
  e.PutU32(change.shard);
  e.PutU64(change.shard_seqno);
  e.PutString(change.table);
  e.PutString(change.key);
  e.PutU8(static_cast<uint8_t>(change.op));
  e.PutI64(change.committed_at);
  EncodeRow(e, change.row);
  return e.Take();
}

std::string EncodeWalCreateTable(std::string_view table,
                                 const std::vector<ColumnSpec>& columns,
                                 size_t key_column) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kCreateTable));
  e.PutString(table);
  e.PutU32(static_cast<uint32_t>(key_column));
  e.PutU32(static_cast<uint32_t>(columns.size()));
  for (const ColumnSpec& col : columns) {
    e.PutString(col.name);
    e.PutU8(static_cast<uint8_t>(col.type));
  }
  return e.Take();
}

std::string EncodeWalCreateIndex(std::string_view table,
                                 std::string_view column) {
  wal::Encoder e;
  e.PutU8(static_cast<uint8_t>(WalRecordKind::kCreateIndex));
  e.PutString(table);
  e.PutString(column);
  return e.Take();
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  wal::Decoder d(payload);
  WalRecord rec;
  const uint8_t kind = d.GetU8();
  switch (kind) {
    case static_cast<uint8_t>(WalRecordKind::kChange): {
      rec.kind = WalRecordKind::kChange;
      rec.change.seqno = d.GetU64();
      rec.change.shard = d.GetU32();
      rec.change.shard_seqno = d.GetU64();
      rec.change.table = d.GetString();
      rec.change.key = d.GetString();
      const uint8_t op = d.GetU8();
      if (op > static_cast<uint8_t>(ChangeOp::kDelete)) {
        return DataLossError("DecodeWalRecord: bad change op");
      }
      rec.change.op = static_cast<ChangeOp>(op);
      rec.change.committed_at = d.GetI64();
      if (!DecodeRow(d, &rec.change.row)) {
        return DataLossError("DecodeWalRecord: bad change row");
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordKind::kCreateTable): {
      rec.kind = WalRecordKind::kCreateTable;
      rec.table = d.GetString();
      rec.key_column = d.GetU32();
      const uint32_t ncols = d.GetU32();
      if (!d.ok() || ncols == 0 || ncols > 4096 || rec.key_column >= ncols) {
        return DataLossError("DecodeWalRecord: bad table schema");
      }
      for (uint32_t i = 0; i < ncols; ++i) {
        ColumnSpec col;
        col.name = d.GetString();
        const uint8_t type = d.GetU8();
        if (type > static_cast<uint8_t>(ColumnType::kString)) {
          return DataLossError("DecodeWalRecord: bad column type");
        }
        col.type = static_cast<ColumnType>(type);
        rec.columns.push_back(std::move(col));
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordKind::kCreateIndex): {
      rec.kind = WalRecordKind::kCreateIndex;
      rec.table = d.GetString();
      rec.column = d.GetString();
      break;
    }
    default:
      return DataLossError("DecodeWalRecord: unknown record kind");
  }
  if (!d.AtEnd()) {
    return DataLossError("DecodeWalRecord: malformed payload");
  }
  return rec;
}

// --- schema -----------------------------------------------------------------

Status Database::CreateTable(std::string_view table,
                             std::vector<ColumnSpec> columns,
                             size_t key_column) {
  if (columns.empty()) {
    return InvalidArgumentError("CreateTable: no columns");
  }
  if (key_column >= columns.size()) {
    return InvalidArgumentError("CreateTable: key column out of range");
  }
  const std::string name(table);
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  if (schemas_.contains(name)) {
    return AlreadyExistsError("CreateTable: table exists: " + name);
  }
  // Schema changes are WAL-logged like data changes (carrying the current
  // seqno watermark) into *every* shard stream, so each stream replays to a
  // complete schema on its own.
  if (Status s = WalAppendAll(
          next_seqno_.load(std::memory_order_relaxed) - 1,
          EncodeWalCreateTable(table, columns, key_column));
      !s.ok()) {
    return s;
  }
  TableSchema schema;
  schema.columns = std::move(columns);
  schema.key_column = key_column;
  schemas_.emplace(name, std::move(schema));
  for (auto& shard : shards_) {
    std::unique_lock shard_lock(shard->mutex);
    shard->tables.try_emplace(name);
  }
  return Status::Ok();
}

bool Database::HasTable(std::string_view table) const {
  std::shared_lock lock(schema_mutex_);
  return schemas_.find(std::string(table)) != schemas_.end();
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock lock(schema_mutex_);
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, _] : schemas_) names.push_back(name);
  return names;  // schemas_ is an ordered map — already sorted
}

Result<size_t> Database::ColumnIndex(std::string_view table,
                                     std::string_view column) const {
  std::shared_lock lock(schema_mutex_);
  auto it = schemas_.find(std::string(table));
  if (it == schemas_.end()) {
    return NotFoundError("ColumnIndex: no table " + std::string(table));
  }
  const auto& cols = it->second.columns;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == column) return i;
  }
  return NotFoundError("ColumnIndex: no column " + std::string(column));
}

Status Database::ValidateRow(const TableSchema& schema, const Row& row) const {
  if (row.size() != schema.columns.size()) {
    return InvalidArgumentError("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeMatches(row[i], schema.columns[i].type)) {
      return InvalidArgumentError("type mismatch in column " +
                                  schema.columns[i].name);
    }
  }
  return Status::Ok();
}

// --- commit path ------------------------------------------------------------

Status Database::WalAppend(uint32_t shard, uint64_t seqno,
                           const std::string& payload) {
  wal::WriteAheadLog* wal = shards_[shard]->wal;
  if (wal == nullptr) return Status::Ok();
  return wal->Append(seqno, payload);
}

Status Database::WalAppendAll(uint64_t seqno, const std::string& payload) {
  // A failure part-way leaves the DDL in some streams only; replay
  // tolerates that (DDL application is idempotent) and the commit fails.
  for (uint32_t k = 0; k < shards(); ++k) {
    if (Status s = WalAppend(k, seqno, payload); !s.ok()) return s;
  }
  return Status::Ok();
}

void Database::UnindexRow(Partition& p, const std::string& pk,
                          const Row& row) {
  for (auto& [column, index] : p.indexes) {
    const std::string value = KeyString(row[column]);
    for (auto it = index.lower_bound(value);
         it != index.end() && it->first == value; ++it) {
      if (it->second == pk) {
        index.erase(it);
        break;
      }
    }
  }
}

void Database::IndexRow(Partition& p, const std::string& pk, const Row& row) {
  for (auto& [column, index] : p.indexes) {
    index.emplace(KeyString(row[column]), pk);
  }
}

void Database::ApplyChange(Partition& p, const ChangeRecord& change) {
  switch (change.op) {
    case ChangeOp::kInsert:
    case ChangeOp::kUpdate: {
      if (auto old = p.rows.find(change.key); old != p.rows.end()) {
        UnindexRow(p, change.key, old->second);
      }
      auto [row_it, _] = p.rows.insert_or_assign(change.key, change.row);
      IndexRow(p, change.key, row_it->second);
      break;
    }
    case ChangeOp::kDelete: {
      if (auto old = p.rows.find(change.key); old != p.rows.end()) {
        UnindexRow(p, change.key, old->second);
        p.rows.erase(old);
      }
      break;
    }
  }
}

void Database::ApplyAndLog(Shard& shard, const TableSchema&,
                           const ChangeRecord& change) {
  ApplyChange(shard.tables[change.table], change);
  shard.log.push_back(change);
  commits_->Increment();
}

void Database::NotifySinks(const ChangeRecord& change) {
  // Snapshot matching sinks, then fire with no locks held: sinks (the
  // trigger monitor) may re-enter the database to render pages.
  std::vector<ChangeSink*> to_fire;
  {
    std::lock_guard lock(sink_mutex_);
    to_fire.reserve(sinks_.size());
    for (const auto& [_, sub] : sinks_) {
      if (sub.shard == kAllShards || sub.shard == change.shard) {
        to_fire.push_back(sub.sink);
      }
    }
  }
  for (ChangeSink* sink : to_fire) sink->OnChange(change.shard, change);
}

Status Database::Upsert(std::string_view table, Row row) {
  // Decide the commit fate before taking the locks; an injected error fails
  // the mutation cleanly, an injected delay stalls the commit timestamp.
  const auto fate = fault::Decide(faults_, "db", instance_, "commit");
  if (!fate.status.ok()) return fate.status;
  std::unique_lock commit(commit_mutex_);
  std::shared_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(std::string(table));
  if (it == schemas_.end()) {
    return NotFoundError("Upsert: no table " + std::string(table));
  }
  const TableSchema& schema = it->second;
  if (Status s = ValidateRow(schema, row); !s.ok()) return s;

  ChangeRecord change;
  change.table = std::string(table);
  change.key = KeyString(row[schema.key_column]);
  change.row = std::move(row);
  change.committed_at = clock_->Now() + fate.delay;
  change.seqno = next_seqno_.load(std::memory_order_relaxed);
  change.shard = ShardOf(change.table, change.key);

  Shard& shard = *shards_[change.shard];
  std::unique_lock shard_lock(shard.mutex);
  change.shard_seqno = shard.next_shard_seqno;
  change.op = shard.tables[change.table].rows.contains(change.key)
                  ? ChangeOp::kUpdate
                  : ChangeOp::kInsert;

  // Write-ahead: the record must be durable before the mutation becomes
  // visible. A failed append fails the commit without consuming a seqno.
  if (Status s = WalAppend(change.shard, change.seqno, EncodeWalChange(change));
      !s.ok()) {
    return s;
  }
  next_seqno_.store(change.seqno + 1, std::memory_order_release);
  shard.next_shard_seqno = change.shard_seqno + 1;
  ApplyAndLog(shard, schema, change);
  shard_lock.unlock();
  schema_lock.unlock();
  commit.unlock();
  NotifySinks(change);
  return Status::Ok();
}

Status Database::Delete(std::string_view table, const Value& key) {
  const auto fate = fault::Decide(faults_, "db", instance_, "commit");
  if (!fate.status.ok()) return fate.status;
  std::unique_lock commit(commit_mutex_);
  std::shared_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(std::string(table));
  if (it == schemas_.end()) {
    return NotFoundError("Delete: no table " + std::string(table));
  }
  const TableSchema& schema = it->second;

  ChangeRecord change;
  change.table = std::string(table);
  change.key = KeyString(key);
  change.op = ChangeOp::kDelete;
  change.committed_at = clock_->Now() + fate.delay;
  change.seqno = next_seqno_.load(std::memory_order_relaxed);
  change.shard = ShardOf(change.table, change.key);

  Shard& shard = *shards_[change.shard];
  std::unique_lock shard_lock(shard.mutex);
  if (!shard.tables[change.table].rows.contains(change.key)) {
    return NotFoundError("Delete: no row " + change.key);
  }
  change.shard_seqno = shard.next_shard_seqno;
  if (Status s = WalAppend(change.shard, change.seqno, EncodeWalChange(change));
      !s.ok()) {
    return s;
  }
  next_seqno_.store(change.seqno + 1, std::memory_order_release);
  shard.next_shard_seqno = change.shard_seqno + 1;
  ApplyAndLog(shard, schema, change);
  shard_lock.unlock();
  schema_lock.unlock();
  commit.unlock();
  NotifySinks(change);
  return Status::Ok();
}

Status Database::ApplyReplicated(const ChangeRecord& change) {
  std::unique_lock commit(commit_mutex_);
  std::shared_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(change.table);
  if (it == schemas_.end()) {
    return NotFoundError("ApplyReplicated: no table " + change.table);
  }
  const TableSchema& schema = it->second;
  if (change.shard >= shards()) {
    return InvalidArgumentError(
        "ApplyReplicated: record for shard " + std::to_string(change.shard) +
        " but this store has " + std::to_string(shards()) +
        " — replicas must mirror their feed's shard layout");
  }
  if (ShardOf(change.table, change.key) != change.shard) {
    return InvalidArgumentError(
        "ApplyReplicated: shard map disagrees with the feed's placement for "
        "key " + change.key);
  }
  Shard& shard = *shards_[change.shard];
  std::unique_lock shard_lock(shard.mutex);
  // Per-shard density is the in-order/exactly-once guarantee: a hole in one
  // shard's stream stalls only that shard, and the consumer re-pulls it
  // while the other shards keep applying.
  if (change.shard_seqno != shard.next_shard_seqno) {
    return DataLossError(
        "ApplyReplicated: shard " + std::to_string(change.shard) +
        " expected shard seqno " + std::to_string(shard.next_shard_seqno) +
        ", got " + std::to_string(change.shard_seqno));
  }
  if (change.op != ChangeOp::kDelete) {
    if (Status s = ValidateRow(schema, change.row); !s.ok()) return s;
  }
  if (Status s = WalAppend(change.shard, change.seqno, EncodeWalChange(change));
      !s.ok()) {
    return s;
  }
  shard.next_shard_seqno = change.shard_seqno + 1;
  // The total order is the feed's; track the high-water mark so LastSeqno()
  // reports how far this replica has seen, independent of arrival order
  // across shards.
  if (change.seqno >= next_seqno_.load(std::memory_order_relaxed)) {
    next_seqno_.store(change.seqno + 1, std::memory_order_release);
  }
  ApplyAndLog(shard, schema, change);
  shard_lock.unlock();
  schema_lock.unlock();
  commit.unlock();
  NotifySinks(change);
  return Status::Ok();
}

// --- query ------------------------------------------------------------------

Result<Row> Database::Get(std::string_view table, const Value& key) const {
  Row row;
  const Status s = ReadRow(table, key, [&row](const Row& r) { row = r; });
  if (!s.ok()) return s;
  return row;
}

Status Database::ReadRow(std::string_view table, const Value& key,
                         FunctionRef<void(const Row&)> visit) const {
  const std::string name(table);
  {
    std::shared_lock lock(schema_mutex_);
    if (schemas_.find(name) == schemas_.end()) {
      return NotFoundError("Get: no table " + name);
    }
  }
  const std::string pk = KeyString(key);
  const Shard& shard = *shards_[ShardOf(name, pk)];
  std::shared_lock lock(shard.mutex);
  auto pit = shard.tables.find(name);
  if (pit == shard.tables.end()) {
    return NotFoundError("Get: no row " + pk);
  }
  auto row_it = pit->second.rows.find(pk);
  if (row_it == pit->second.rows.end()) {
    return NotFoundError("Get: no row " + pk);
  }
  visit(row_it->second);
  return Status::Ok();
}

std::vector<Row> Database::Scan(
    std::string_view table, const std::function<bool(const Row&)>& pred) const {
  std::vector<Row> out;
  ForEachRow(table, [&](const Row& row) {
    if (pred(row)) out.push_back(row);
  });
  return out;
}

std::vector<Row> Database::ScanAll(std::string_view table) const {
  std::vector<Row> out;
  ForEachRow(table, [&out](const Row& row) { out.push_back(row); });
  return out;
}

void Database::ForEachRow(std::string_view table,
                          FunctionRef<void(const Row&)> visit) const {
  const std::string name(table);
  std::shared_lock schema_lock(schema_mutex_);
  if (schemas_.find(name) == schemas_.end()) return;
  // Lock every shard (ascending — the global lock order) for an atomic
  // snapshot, then merge partitions back into primary-key order so the
  // result is byte-identical regardless of the shard count.
  const SharedLockAll locks(shards_);
  size_t rows = 0;
  for (const auto& shard : shards_) {
    auto pit = shard->tables.find(name);
    if (pit != shard->tables.end()) rows += pit->second.rows.size();
  }
  std::vector<std::pair<const std::string*, const Row*>> merged;
  merged.reserve(rows);
  for (const auto& shard : shards_) {
    auto pit = shard->tables.find(name);
    if (pit == shard->tables.end()) continue;
    for (const auto& [pk, row] : pit->second.rows) {
      merged.emplace_back(&pk, &row);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [_, row] : merged) visit(*row);
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  const std::string name(table);
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return NotFoundError("CreateIndex: no table " + name);
  }
  TableSchema& schema = it->second;
  size_t column_index = schema.columns.size();
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name == column) {
      column_index = i;
      break;
    }
  }
  if (column_index == schema.columns.size()) {
    return NotFoundError("CreateIndex: no column " + std::string(column));
  }
  if (std::find(schema.indexed_columns.begin(), schema.indexed_columns.end(),
                column_index) != schema.indexed_columns.end()) {
    return Status::Ok();  // idempotent
  }
  if (Status s =
          WalAppendAll(next_seqno_.load(std::memory_order_relaxed) - 1,
                       EncodeWalCreateIndex(table, column));
      !s.ok()) {
    return s;
  }
  schema.indexed_columns.push_back(column_index);
  std::sort(schema.indexed_columns.begin(), schema.indexed_columns.end());
  for (auto& shard : shards_) {
    std::unique_lock shard_lock(shard->mutex);
    Partition& p = shard->tables[name];
    auto [index_it, created] = p.indexes.try_emplace(column_index);
    if (!created) continue;
    for (const auto& [pk, row] : p.rows) {
      index_it->second.emplace(KeyString(row[column_index]), pk);
    }
  }
  return Status::Ok();
}

bool Database::HasIndex(std::string_view table, std::string_view column) const {
  std::shared_lock lock(schema_mutex_);
  auto it = schemas_.find(std::string(table));
  if (it == schemas_.end()) return false;
  const TableSchema& schema = it->second;
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name == column) {
      return std::find(schema.indexed_columns.begin(),
                       schema.indexed_columns.end(),
                       i) != schema.indexed_columns.end();
    }
  }
  return false;
}

std::vector<Row> Database::Lookup(std::string_view table,
                                  std::string_view column,
                                  const Value& value) const {
  std::vector<Row> out;
  ForEachMatch(table, column, value,
               [&out](const Row& row) { out.push_back(row); });
  return out;
}

void Database::ForEachMatch(std::string_view table, std::string_view column,
                            const Value& value,
                            FunctionRef<void(const Row&)> visit) const {
  const std::string name(table);
  std::shared_lock schema_lock(schema_mutex_);
  auto it = schemas_.find(name);
  if (it == schemas_.end()) return;
  const TableSchema& schema = it->second;
  size_t column_index = schema.columns.size();
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    if (schema.columns[i].name == column) {
      column_index = i;
      break;
    }
  }
  if (column_index == schema.columns.size()) return;
  const bool indexed =
      std::find(schema.indexed_columns.begin(), schema.indexed_columns.end(),
                column_index) != schema.indexed_columns.end();
  const std::string needle = KeyString(value);

  const SharedLockAll locks(shards_);
  // Collect matches per shard, then sort by primary key so the result
  // order matches the unsharded store exactly.
  std::vector<std::pair<const std::string*, const Row*>> merged;
  for (const auto& shard : shards_) {
    auto pit = shard->tables.find(name);
    if (pit == shard->tables.end()) continue;
    const Partition& p = pit->second;
    if (indexed) {
      auto index_it = p.indexes.find(column_index);
      if (index_it == p.indexes.end()) continue;
      const auto [first, last] = index_it->second.equal_range(needle);
      merged.reserve(merged.size() +
                     static_cast<size_t>(std::distance(first, last)));
      for (auto e = first; e != last; ++e) {
        auto row_it = p.rows.find(e->second);
        if (row_it != p.rows.end()) {
          merged.emplace_back(&row_it->first, &row_it->second);
        }
      }
    } else {
      for (const auto& [pk, row] : p.rows) {
        if (KeyString(row[column_index]) == needle) {
          merged.emplace_back(&pk, &row);
        }
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [_, row] : merged) visit(*row);
}

size_t Database::RowCount(std::string_view table) const {
  const std::string name(table);
  size_t count = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    auto pit = shard->tables.find(name);
    if (pit != shard->tables.end()) count += pit->second.rows.size();
  }
  return count;
}

// --- durability -------------------------------------------------------------

Status Database::Checkpoint() {
  if (shards_[0]->wal == nullptr) {
    return FailedPreconditionError("Checkpoint: no WAL attached");
  }
  std::lock_guard commit(commit_mutex_);
  std::shared_lock schema_lock(schema_mutex_);
  const uint64_t watermark = next_seqno_.load(std::memory_order_relaxed) - 1;
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, _] : schemas_) names.push_back(name);

  for (uint32_t k = 0; k < shards(); ++k) {
    Shard& shard = *shards_[k];
    std::unique_lock shard_lock(shard.mutex);
    const uint64_t shard_mark = shard.next_shard_seqno - 1;

    // Image format 2: shard identity + both watermarks + full schema + this
    // shard's rows, so every stream recovers alone (and a checkpoint from a
    // different shard layout is detected instead of misread).
    wal::Encoder image;
    image.PutU8(2);
    image.PutU32(k);
    image.PutU32(shards());
    image.PutU64(watermark);
    image.PutU64(shard_mark);
    image.PutU32(static_cast<uint32_t>(names.size()));
    for (const std::string& name : names) {
      const TableSchema& schema = schemas_.at(name);
      image.PutString(name);
      image.PutU32(static_cast<uint32_t>(schema.key_column));
      image.PutU32(static_cast<uint32_t>(schema.columns.size()));
      for (const ColumnSpec& col : schema.columns) {
        image.PutString(col.name);
        image.PutU8(static_cast<uint8_t>(col.type));
      }
      image.PutU32(static_cast<uint32_t>(schema.indexed_columns.size()));
      for (const size_t column_index : schema.indexed_columns) {
        image.PutU32(static_cast<uint32_t>(column_index));
      }
      const auto pit = shard.tables.find(name);
      const Partition* p = pit == shard.tables.end() ? nullptr : &pit->second;
      image.PutU32(p ? static_cast<uint32_t>(p->rows.size()) : 0);
      if (p) {
        for (const auto& [_, row] : p->rows) EncodeRow(image, row);
      }
    }
    if (Status s = shard.wal->WriteCheckpoint(watermark, image.str());
        !s.ok()) {
      return s;
    }

    // The checkpoint now covers this shard through `shard_mark`: retire WAL
    // segments fully covered, and shrink the in-memory change log to the
    // retention bound — consumers further behind than the retained head go
    // through resync instead of the log.
    if (retention_ > 0 && shard_mark + 1 > retention_) {
      const uint64_t new_head = shard_mark + 1 - retention_;
      if (new_head > shard.log_head) {
        auto cut = std::lower_bound(
            shard.log.begin(), shard.log.end(), new_head,
            [](const ChangeRecord& r, uint64_t s) { return r.shard_seqno < s; });
        if (cut != shard.log.begin()) {
          const uint64_t max_erased_global = std::prev(cut)->seqno;
          if (max_erased_global + 1 >
              global_log_head_.load(std::memory_order_relaxed)) {
            global_log_head_.store(max_erased_global + 1,
                                   std::memory_order_release);
          }
        }
        shard.log.erase(shard.log.begin(), cut);
        shard.log_head = new_head;
      }
    }
    if (auto trimmed = shard.wal->TruncateThrough(watermark); !trimmed.ok()) {
      return trimmed.status();
    }
  }
  return Status::Ok();
}

Status Database::Sync() {
  for (const auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    if (Status s = shard->wal->Sync(); !s.ok()) return s;
  }
  return Status::Ok();
}

void Database::RecoverShard(uint32_t index, ShardRecoveryScratch& sc) {
  const auto t0 = std::chrono::steady_clock::now();
  Shard& shard = *shards_[index];
  ShardRecovery& r = sc.result;
  r.torn_bytes = shard.wal->torn_bytes_dropped();
  const auto done = [&] {
    r.shard_seqno = shard.next_shard_seqno - 1;
    r.replay_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  };

  uint64_t after_lsn = 0;
  auto ckpt = shard.wal->ReadLatestCheckpoint();
  if (ckpt.ok()) {
    wal::Decoder d(ckpt.value().image);
    if (d.GetU8() != 2) {
      r.status = DataLossError("Recover: unknown checkpoint image version");
      return done();
    }
    const uint32_t image_shard = d.GetU32();
    const uint32_t image_shards = d.GetU32();
    const uint64_t global_mark = d.GetU64();
    const uint64_t shard_mark = d.GetU64();
    const uint32_t ntables = d.GetU32();
    if (!d.ok() || global_mark != ckpt.value().seqno) {
      r.status = DataLossError("Recover: checkpoint image header mismatch");
      return done();
    }
    if (image_shard != index || image_shards != shards()) {
      r.status = DataLossError(
          "Recover: checkpoint belongs to a different shard layout "
          "(re-sharding requires a fresh sync)");
      return done();
    }
    for (uint32_t ti = 0; ti < ntables; ++ti) {
      const std::string name = d.GetString();
      TableSchema schema;
      schema.key_column = d.GetU32();
      const uint32_t ncols = d.GetU32();
      if (!d.ok() || ncols == 0 || ncols > 4096 || schema.key_column >= ncols) {
        r.status = DataLossError("Recover: bad schema in checkpoint image");
        return done();
      }
      for (uint32_t ci = 0; ci < ncols; ++ci) {
        ColumnSpec col;
        col.name = d.GetString();
        const uint8_t type = d.GetU8();
        if (type > static_cast<uint8_t>(ColumnType::kString)) {
          r.status =
              DataLossError("Recover: bad column type in checkpoint image");
          return done();
        }
        col.type = static_cast<ColumnType>(type);
        schema.columns.push_back(std::move(col));
      }
      const uint32_t nindexes = d.GetU32();
      if (!d.ok() || nindexes > ncols) {
        r.status = DataLossError("Recover: bad index list in checkpoint image");
        return done();
      }
      Partition p;
      for (uint32_t ii = 0; ii < nindexes; ++ii) {
        const uint32_t column_index = d.GetU32();
        if (column_index >= ncols) {
          r.status =
              DataLossError("Recover: bad index column in checkpoint image");
          return done();
        }
        schema.indexed_columns.push_back(column_index);
        p.indexes.try_emplace(column_index);
      }
      const uint32_t nrows = d.GetU32();
      for (uint32_t ri = 0; d.ok() && ri < nrows; ++ri) {
        Row row;
        if (!DecodeRow(d, &row) || row.size() != ncols) {
          r.status = DataLossError("Recover: bad row in checkpoint image");
          return done();
        }
        const std::string pk = KeyString(row[schema.key_column]);
        auto [row_it, _] = p.rows.insert_or_assign(pk, std::move(row));
        IndexRow(p, pk, row_it->second);
      }
      if (!d.ok()) {
        r.status = DataLossError("Recover: truncated checkpoint image");
        return done();
      }
      shard.tables.insert_or_assign(name, std::move(p));
      sc.schema.insert_or_assign(name, std::move(schema));
    }
    if (!d.AtEnd()) {
      r.status = DataLossError("Recover: trailing bytes in checkpoint image");
      return done();
    }
    r.checkpoint_seqno = global_mark;
    r.last_global_seqno = global_mark;
    shard.next_shard_seqno = shard_mark + 1;
    shard.log_head = shard_mark + 1;
    after_lsn = ckpt.value().lsn;
  } else if (ckpt.status().code() != ErrorCode::kNotFound) {
    r.status = ckpt.status();
    return done();
  }

  Status replay = shard.wal->Replay(
      after_lsn,
      [&](uint64_t, uint64_t, std::string_view payload) -> Status {
        auto rec_or = DecodeWalRecord(payload);
        if (!rec_or.ok()) return rec_or.status();
        WalRecord& rec = rec_or.value();
        switch (rec.kind) {
          case WalRecordKind::kCreateTable: {
            if (sc.schema.contains(rec.table)) break;  // in the checkpoint
            TableSchema schema;
            schema.columns = std::move(rec.columns);
            schema.key_column = rec.key_column;
            sc.schema.emplace(rec.table, std::move(schema));
            shard.tables.try_emplace(rec.table);
            break;
          }
          case WalRecordKind::kCreateIndex: {
            auto it = sc.schema.find(rec.table);
            if (it == sc.schema.end()) {
              return DataLossError("Recover: index on unknown table " +
                                   rec.table);
            }
            TableSchema& schema = it->second;
            size_t column_index = schema.columns.size();
            for (size_t i = 0; i < schema.columns.size(); ++i) {
              if (schema.columns[i].name == rec.column) {
                column_index = i;
                break;
              }
            }
            if (column_index == schema.columns.size()) {
              return DataLossError("Recover: index on unknown column " +
                                   rec.column);
            }
            if (std::find(schema.indexed_columns.begin(),
                          schema.indexed_columns.end(),
                          column_index) == schema.indexed_columns.end()) {
              schema.indexed_columns.push_back(column_index);
              std::sort(schema.indexed_columns.begin(),
                        schema.indexed_columns.end());
            }
            Partition& p = shard.tables[rec.table];
            auto [index_it, created] = p.indexes.try_emplace(column_index);
            if (created) {
              for (const auto& [pk, row] : p.rows) {
                index_it->second.emplace(KeyString(row[column_index]), pk);
              }
            }
            break;
          }
          case WalRecordKind::kChange: {
            if (rec.change.shard != index) {
              return DataLossError(
                  "Recover: record for shard " +
                  std::to_string(rec.change.shard) + " in shard " +
                  std::to_string(index) + "'s stream");
            }
            if (rec.change.shard_seqno != shard.next_shard_seqno) {
              return DataLossError(
                  "Recover: shard " + std::to_string(index) +
                  " expected shard seqno " +
                  std::to_string(shard.next_shard_seqno) + ", got " +
                  std::to_string(rec.change.shard_seqno));
            }
            auto pit = shard.tables.find(rec.change.table);
            if (pit == shard.tables.end()) {
              return DataLossError("Recover: change for unknown table " +
                                   rec.change.table);
            }
            ApplyChange(pit->second, rec.change);
            shard.next_shard_seqno = rec.change.shard_seqno + 1;
            r.last_global_seqno = rec.change.seqno;
            shard.log.push_back(std::move(rec.change));
            ++r.replayed;
            break;
          }
        }
        return Status::Ok();
      });
  // A replay error keeps the clean prefix applied before it — the shard
  // serves what it has and is flagged kDataLoss by the merge step.
  if (!replay.ok()) r.status = replay;
  done();
}

Status Database::Recover() {
  if (shards_[0]->wal == nullptr) {
    return FailedPreconditionError("Recover: no WAL attached");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard commit(commit_mutex_);
  std::unique_lock schema_lock(schema_mutex_);
  if (!schemas_.empty() || next_seqno_.load(std::memory_order_relaxed) != 1) {
    return FailedPreconditionError("Recover: database is not empty");
  }
  for (const auto& shard : shards_) {
    if (!shard->log.empty()) {
      return FailedPreconditionError("Recover: database is not empty");
    }
  }

  // Replay every shard in parallel: each worker owns its shard's state
  // exclusively (plus private schema scratch merged serially below), so no
  // locks are needed while the pool runs.
  const size_t n = shards_.size();
  std::vector<ShardRecoveryScratch> scratch(n);
  size_t workers =
      recovery_threads_ != 0
          ? recovery_threads_
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (uint32_t k = 0; k < n; ++k) RecoverShard(k, scratch[k]);
  } else {
    ThreadPool pool(workers);
    for (uint32_t k = 0; k < n; ++k) {
      pool.Submit([this, k, &scratch] { RecoverShard(k, scratch[k]); });
    }
    pool.Wait();
    pool.Shutdown();
  }

  // Merge the per-shard schema views (identical by construction — every
  // stream carries every DDL record; a stream torn before a late DDL just
  // misses tables it holds no rows for).
  for (const auto& sc : scratch) {
    for (const auto& [name, schema] : sc.schema) {
      auto [it, inserted] = schemas_.try_emplace(name, schema);
      if (inserted) continue;
      TableSchema& have = it->second;
      if (have.key_column != schema.key_column ||
          have.columns.size() != schema.columns.size()) {
        return DataLossError("Recover: shard streams disagree on the schema of "
                             + name);
      }
      for (const size_t ci : schema.indexed_columns) {
        if (std::find(have.indexed_columns.begin(), have.indexed_columns.end(),
                      ci) == have.indexed_columns.end()) {
          have.indexed_columns.push_back(ci);
        }
      }
      std::sort(have.indexed_columns.begin(), have.indexed_columns.end());
    }
  }
  // Every shard serves every table (a stream torn before a CreateTable
  // still needs the partition other shards know about).
  for (const auto& [name, schema] : schemas_) {
    for (const auto& shard : shards_) {
      Partition& p = shard->tables[name];
      for (const size_t ci : schema.indexed_columns) p.indexes.try_emplace(ci);
    }
  }

  // Cross-shard accounting. Global seqnos are dense across shards, so the
  // highest watermark seen anywhere counts the commits that must exist;
  // per-shard seqnos are dense from 1, so their sum counts the commits
  // recovered. The difference is provable loss, attributed to the shards
  // whose streams end early (suffix-only truncation means a shard holds
  // *all* its records up to its last global watermark).
  uint64_t high = 0;
  uint64_t recovered_count = 0;
  uint64_t max_ckpt = 0;
  uint64_t replayed_total = 0;
  size_t failed_shards = 0;
  for (const auto& sc : scratch) {
    high = std::max(high, sc.result.last_global_seqno);
    recovered_count += sc.result.shard_seqno;
    max_ckpt = std::max(max_ckpt, sc.result.checkpoint_seqno);
    replayed_total += sc.result.replayed;
  }
  const uint64_t missing = high > recovered_count ? high - recovered_count : 0;

  recovery_report_ = RecoveryReport{};
  recovery_report_.missing_records = missing;
  Status first_error = Status::Ok();
  for (uint32_t k = 0; k < n; ++k) {
    ShardRecovery r = scratch[k].result;
    if (!r.status.ok()) {
      ++failed_shards;
      if (first_error.ok()) first_error = r.status;
    } else if (r.torn_bytes > 0) {
      r.status = DataLossError(
          "shard " + std::to_string(k) + ": torn WAL tail (" +
          std::to_string(r.torn_bytes) + " bytes dropped); heal via catch-up");
    }
    // A clean-boundary tail loss (group commit: frames unsynced at the
    // crash, nothing torn) leaves no per-shard evidence — a short stream
    // looks identical to a shard that simply had no recent commits. Those
    // losses surface only as the cross-shard missing_records count above;
    // attributing them to every shard below the high watermark would flag
    // healthy shards, so we deliberately do not.
    recovery_report_.shards.push_back(std::move(r));
  }

  next_seqno_.store(high + 1, std::memory_order_release);
  global_log_head_.store(max_ckpt + 1, std::memory_order_release);

  recovered_records_->Increment(replayed_total);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  recovery_report_.total_ms = ms;
  recovery_ms_->Observe(ms);
  // Partial loss is survivable (the healthy shards serve; the flagged ones
  // heal through replication) — only a store with *no* usable shard fails.
  if (failed_shards == n && !first_error.ok()) return first_error;
  return Status::Ok();
}

// --- change feed ------------------------------------------------------------

uint64_t Database::LastSeqno() const {
  return next_seqno_.load(std::memory_order_acquire) - 1;
}

uint64_t Database::log_head_seqno() const {
  return global_log_head_.load(std::memory_order_acquire);
}

ChangeCursor Database::AppliedCursor() const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    cursor.positions.push_back(shard->next_shard_seqno - 1);
  }
  return cursor;
}

ChangeCursor Database::RetainedCursor() const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    cursor.positions.push_back(shard->log_head - 1);
  }
  return cursor;
}

ChangeCursor Database::CursorAtGlobal(uint64_t seqno) const {
  ChangeCursor cursor;
  cursor.positions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    // Shard logs ascend in both seqno spaces; find the last record at or
    // before the global watermark.
    auto it = std::upper_bound(
        shard->log.begin(), shard->log.end(), seqno,
        [](uint64_t s, const ChangeRecord& r) { return s < r.seqno; });
    if (it != shard->log.begin()) {
      cursor.positions.push_back(std::prev(it)->shard_seqno);
    } else {
      // Nothing at or before the watermark survives in the log: clamp to
      // the retained head. If records below it postdated `seqno`, the
      // consumer observes the mismatch at apply time and resyncs.
      cursor.positions.push_back(shard->log_head - 1);
    }
  }
  return cursor;
}

Result<ChangeBatch> Database::ReadChanges(const ChangeCursor& cursor,
                                          size_t limit) const {
  if (Status s = fault::Check(faults_, "db", instance_, "changes"); !s.ok()) {
    return s;
  }
  const size_t n = shards_.size();
  ChangeBatch batch;
  batch.next.positions.resize(n);
  for (size_t k = 0; k < n; ++k) batch.next.positions[k] = cursor.at(k);

  // Per shard: the tail past the cursor (bounded by limit — the merge can
  // never consume more than `limit` from one shard).
  std::vector<std::vector<ChangeRecord>> tails(n);
  for (size_t k = 0; k < n; ++k) {
    const Shard& shard = *shards_[k];
    std::shared_lock lock(shard.mutex);
    const uint64_t pos = cursor.at(k);
    if (pos + 1 < shard.log_head) {
      // This shard's records at the cursor were truncated after a
      // checkpoint: withhold the shard (position unmoved) and report the
      // gap; the healthy shards still flow below.
      batch.gap_shards.push_back(static_cast<uint32_t>(k));
      continue;
    }
    auto it = std::lower_bound(
        shard.log.begin(), shard.log.end(), pos + 1,
        [](const ChangeRecord& r, uint64_t s) { return r.shard_seqno < s; });
    for (; it != shard.log.end() && tails[k].size() < limit; ++it) {
      tails[k].push_back(*it);
    }
  }

  // K-way merge by global seqno.
  std::vector<size_t> heads(n, 0);
  while (batch.records.size() < limit) {
    size_t best = n;
    for (size_t k = 0; k < n; ++k) {
      if (heads[k] >= tails[k].size()) continue;
      if (best == n ||
          tails[k][heads[k]].seqno < tails[best][heads[best]].seqno) {
        best = k;
      }
    }
    if (best == n) break;
    ChangeRecord& rec = tails[best][heads[best]++];
    batch.next.positions[best] = rec.shard_seqno;
    batch.records.push_back(std::move(rec));
  }
  return batch;
}

Result<std::vector<ChangeRecord>> Database::ReadShardChanges(
    uint32_t shard_index, uint64_t after, size_t limit) const {
  if (shard_index >= shards()) {
    return InvalidArgumentError("ReadShardChanges: no shard " +
                                std::to_string(shard_index));
  }
  if (Status s = fault::Check(faults_, "db", instance_, "changes"); !s.ok()) {
    return s;
  }
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  if (after + 1 < shard.log_head) {
    return DataLossError(
        "ReadShardChanges: shard " + std::to_string(shard_index) +
        " seqnos through " + std::to_string(shard.log_head - 1) +
        " truncated after checkpoint; resync required");
  }
  std::vector<ChangeRecord> out;
  auto it = std::lower_bound(
      shard.log.begin(), shard.log.end(), after + 1,
      [](const ChangeRecord& r, uint64_t s) { return r.shard_seqno < s; });
  for (; it != shard.log.end() && out.size() < limit; ++it) out.push_back(*it);
  return out;
}

uint64_t Database::Subscribe(ChangeSink* sink, uint32_t shard) {
  std::lock_guard lock(sink_mutex_);
  const uint64_t id = next_sink_id_++;
  sinks_[id] = Subscription{sink, shard};
  return id;
}

void Database::Unsubscribe(uint64_t id) {
  std::lock_guard lock(sink_mutex_);
  sinks_.erase(id);
}

}  // namespace nagano::db
