#include "db/database.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/checksum.h"
#include "storage/dram_device.h"
#include "storage/fault_injector.h"

namespace spitfire {

namespace {
constexpr uint32_t kCatalogMagic = 0xCA7A106F;
constexpr size_t kMaxTables = 64;

struct CatalogEntry {
  uint32_t table_id;
  uint32_t tuple_size;
  page_id_t index_root_pid;
};
struct CatalogPayload {
  uint32_t magic;
  uint32_t num_tables;
  CatalogEntry entries[kMaxTables];
};

// The catalog is written as two versioned, checksummed slots within page
// 0's payload, alternating by version parity. The catalog page is flushed
// with a whole-page write, which a crash can tear — but the slot NOT being
// updated is rewritten with bytes identical to what is already on the
// device, so a torn write can corrupt at most the slot being written;
// the previous version in the other slot still validates. Readers pick
// the valid slot with the highest version.
struct CatalogSlot {
  uint64_t version = 0;
  uint64_t checksum = 0;
  CatalogPayload payload{};

  void Stamp() {
    checksum = 0;
    checksum = Checksum64(this, sizeof(*this));
  }
  bool Valid() const {
    if (payload.magic != kCatalogMagic) return false;
    if (payload.num_tables > kMaxTables) return false;
    CatalogSlot tmp = *this;
    tmp.checksum = 0;
    return Checksum64(&tmp, sizeof(tmp)) == checksum;
  }
};
constexpr size_t kCatalogSlotStride = 2048;
static_assert(sizeof(CatalogSlot) <= kCatalogSlotStride);
static_assert(2 * kCatalogSlotStride <= kPagePayloadSize);
}  // namespace

Database::Database(const DatabaseOptions& opts, DatabaseEnv env)
    : opts_(opts), env_(std::move(env)) {}

Database::~Database() {
  if (ckpt_ != nullptr) ckpt_->Stop();
}

Status Database::InitCommon(bool fresh) {
  if (opts_.num_shards > 1) {
    return Status::InvalidArgument(
        "num_shards above 1: the buffer manager has no shards");
  }
  const bool have_nvm_tier = opts_.nvm_frames > 0;
  const uint64_t pool_bytes = have_nvm_tier
                                  ? BufferPool::RequiredCapacity(
                                        opts_.nvm_frames, true)
                                  : 0;

  if (env_.db_ssd == nullptr) {
    env_.db_ssd = opts_.ssd_path.empty()
                      ? std::make_unique<SsdDevice>(opts_.ssd_capacity)
                      : std::make_unique<SsdDevice>(opts_.ssd_path,
                                                    opts_.ssd_capacity);
  }
  if (opts_.enable_wal && env_.log_ssd == nullptr) {
    env_.log_ssd = std::make_unique<SsdDevice>(opts_.log_ssd_capacity);
  }
  if (have_nvm_tier && env_.nvm == nullptr) {
    env_.nvm = std::make_unique<NvmDevice>(
        pool_bytes + (opts_.enable_wal ? opts_.log_staging_size : 0));
  }

  BufferManagerOptions bopts;
  bopts.dram_frames = opts_.dram_frames;
  bopts.nvm_frames = opts_.nvm_frames;
  bopts.policy = opts_.policy;
  bopts.nvm_admission = opts_.nvm_admission;
  bopts.admission_queue_capacity = opts_.admission_queue_capacity;
  bopts.enable_fine_grained_loading = opts_.enable_fine_grained_loading;
  bopts.load_granularity = opts_.load_granularity;
  bopts.enable_mini_pages = opts_.enable_mini_pages;
  bopts.ssd = env_.db_ssd.get();
  bopts.nvm = env_.nvm.get();
  bopts.dram_backing = opts_.dram_backing;
  bm_ = std::make_unique<BufferManager>(bopts);

  if (opts_.enable_wal) {
    LogManager::Options lopts;
    if (have_nvm_tier) {
      // Stage on NVM: commits are durable at NVM write latency and the
      // SSD append happens asynchronously.
      lopts.nvm = env_.nvm.get();
      lopts.nvm_offset = pool_bytes;
      lopts.nvm_size = opts_.log_staging_size;
      commit_forces_drain_ = false;
    } else {
      // No NVM: stage in DRAM, force an SSD drain at every commit (group
      // commit against the SSD).
      log_staging_dram_ =
          std::make_unique<DramDevice>(opts_.log_staging_size);
      lopts.nvm = log_staging_dram_.get();
      lopts.nvm_offset = 0;
      lopts.nvm_size = opts_.log_staging_size;
      commit_forces_drain_ = true;
    }
    lopts.log_ssd = env_.log_ssd.get();
    auto lm_r = fresh ? LogManager::Create(lopts) : LogManager::Attach(lopts);
    SPITFIRE_RETURN_NOT_OK(lm_r.status());
    lm_ = lm_r.MoveValue();
  }

  if (opts_.checkpoint_interval_ms > 0) {
    ckpt_ = std::make_unique<Checkpointer>(bm_.get(), lm_.get(),
                                           opts_.checkpoint_interval_ms);
    ckpt_->Start();
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& opts) {
  auto db = std::unique_ptr<Database>(new Database(opts, DatabaseEnv{}));
  SPITFIRE_RETURN_NOT_OK(db->InitCommon(/*fresh=*/true));
  // Page 0: the catalog.
  auto cat = db->bm_->NewPage(kCatalogPageType);
  SPITFIRE_RETURN_NOT_OK(cat.status());
  SPITFIRE_CHECK(cat.value().pid() == kCatalogPid);
  SPITFIRE_RETURN_NOT_OK(db->WriteCatalog());
  return db;
}

Result<std::unique_ptr<Database>> Database::Recover(
    const DatabaseOptions& opts, DatabaseEnv env, DatabaseEnv* env_on_error) {
  auto db = std::unique_ptr<Database>(new Database(opts, std::move(env)));
  Status st = db->InitCommon(/*fresh=*/false);
  if (st.ok()) st = db->RunRecovery();
  if (!st.ok()) {
    if (db->ckpt_ != nullptr) db->ckpt_->Stop();
    // Hand the devices back before the engine is torn down (the device
    // objects do not move — only ownership does — so the buffer manager's
    // raw pointers stay valid through its destructor).
    if (env_on_error != nullptr) *env_on_error = std::move(db->env_);
    return st;
  }
  return db;
}

DatabaseEnv Database::Crash(std::unique_ptr<Database> db) {
  if (db->ckpt_ != nullptr) db->ckpt_->Stop();
  // Destroy the engine without flushing anything: DRAM contents are lost;
  // NVM and SSD device contents survive in the returned env.
  DatabaseEnv env = std::move(db->env_);
  db.reset();
  return env;
}

Status Database::WriteCatalog() {
  auto g_r = bm_->FetchPage(kCatalogPid, AccessIntent::kWrite);
  SPITFIRE_RETURN_NOT_OK(g_r.status());
  CatalogSlot slot{};
  slot.payload.magic = kCatalogMagic;
  {
    std::lock_guard<std::mutex> g(schema_mu_);
    slot.version = ++catalog_version_;
    slot.payload.num_tables = static_cast<uint32_t>(tables_.size());
    size_t i = 0;
    for (const auto& [id, entry] : tables_) {
      slot.payload.entries[i++] = CatalogEntry{
          id, static_cast<uint32_t>(entry.tuple_size),
          entry.index->root_pid()};
    }
  }
  slot.Stamp();
  const size_t off =
      kPageHeaderSize + (slot.version % 2) * kCatalogSlotStride;
  SPITFIRE_RETURN_NOT_OK(g_r.value().WriteAt(off, sizeof(slot), &slot));
  g_r.value().Release();
  return bm_->FlushPage(kCatalogPid);
}

Result<Table*> Database::CreateTable(uint32_t table_id, size_t tuple_size) {
  {
    std::lock_guard<std::mutex> g(schema_mu_);
    if (tables_.count(table_id) != 0) {
      return Status::InvalidArgument("table exists");
    }
    if (tables_.size() >= kMaxTables) {
      return Status::InvalidArgument("too many tables");
    }
  }
  auto idx_r = BTree::Create(bm_.get());
  SPITFIRE_RETURN_NOT_OK(idx_r.status());
  std::unique_ptr<BTree> index(idx_r.value());
  Table::Options topts;
  topts.table_id = table_id;
  topts.tuple_size = tuple_size;
  auto table = std::make_unique<Table>(topts, bm_.get(), &tm_, index.get(),
                                       lm_.get());
  Table* raw = table.get();
  {
    std::lock_guard<std::mutex> g(schema_mu_);
    tables_[table_id] =
        TableEntry{std::move(index), std::move(table), tuple_size};
  }
  SPITFIRE_RETURN_NOT_OK(WriteCatalog());
  return raw;
}

Table* Database::GetTable(uint32_t table_id) {
  std::lock_guard<std::mutex> g(schema_mu_);
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.table.get();
}

std::unique_ptr<Transaction> Database::Begin() { return tm_.Begin(); }

Status Database::Commit(Transaction* txn) {
  SPITFIRE_DCHECK(txn->state() == TxnState::kActive);
  if (!txn->write_set.empty() && lm_ != nullptr) {
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn->id();
    commit.prev_lsn = txn->last_lsn;
    Result<lsn_t> lsn = lm_->Append(commit);
    if (!lsn.ok()) {
      // A failed append staged nothing (a commit group persists with one
      // atomic staging append), so the transaction did not commit: roll it
      // back and release its slot instead of leaking its write locks and
      // pinning the GC watermark.
      (void)Abort(txn);
      return lsn.status();
    }
    // Without persistent staging, the commit is only durable on SSD.
    if (commit_forces_drain_) {
      SPITFIRE_RETURN_NOT_OK(lm_->Drain());
    }
  }
  if (!txn->write_set.empty()) {
    // One GC watermark for the whole commit: a stale one only delays GC.
    const timestamp_t watermark = tm_.MinActiveTs();
    for (const auto& op : txn->write_set) {
      Table* t = GetTable(op.table_id);
      SPITFIRE_CHECK(t != nullptr);
      t->FinalizeCommit(txn, op, watermark);
    }
  }
  txn->set_state(TxnState::kCommitted);
  tm_.Finish(txn);
  return Status::OK();
}

Status Database::Abort(Transaction* txn) {
  SPITFIRE_DCHECK(txn->state() == TxnState::kActive);
  for (auto it = txn->write_set.rbegin(); it != txn->write_set.rend(); ++it) {
    Table* t = GetTable(it->table_id);
    SPITFIRE_CHECK(t != nullptr);
    t->RollbackAbort(txn, *it);
  }
  if (!txn->write_set.empty() && lm_ != nullptr) {
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn_id = txn->id();
    abort.prev_lsn = txn->last_lsn;
    // Best-effort: recovery never needs the abort record (it redoes only
    // transactions with a commit record, and the versions above were
    // already rolled back in place). A full staging buffer or a dying
    // device must not leave the transaction slot occupied forever.
    (void)lm_->Append(abort);
  }
  txn->set_state(TxnState::kAborted);
  tm_.Finish(txn);
  return Status::OK();
}

Status Database::Checkpoint() {
  // Sample the watermark BEFORE the flush: every transaction with
  // ts <= watermark has finished, so its versions are in the buffer before
  // the sweep starts and a clean sweep makes them durable. Writes racing
  // the sweep belong to transactions above the watermark and stay covered
  // by redo.
  const timestamp_t watermark = tm_.MinActiveTs() - 1;
  size_t skipped = 0;
  SPITFIRE_RETURN_NOT_OK(bm_->FlushAll(/*include_nvm=*/false, &skipped));
  if (lm_ != nullptr) {
    SPITFIRE_RETURN_NOT_OK(lm_->Drain());
    // Only a complete sweep may advance the durable redo horizon: a page
    // skipped because it was actively referenced may hold the only copy
    // of a version at or below the watermark.
    if (skipped == 0) {
      SPITFIRE_RETURN_NOT_OK(lm_->SetDurableHorizon(watermark));
    }
  }
  return Status::OK();
}

Status Database::CheckIntegrity(std::string* why) {
  std::lock_guard<std::mutex> g(schema_mu_);
  for (auto& [id, entry] : tables_) {
    SPITFIRE_RETURN_NOT_OK(entry.table->ValidateHeap(why));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery (Section 5.2): (1) rebuild the mapping table from the NVM
// buffer, (2) append the persistent NVM log-buffer tail to the log file,
// (3) analysis + logical redo of committed transactions, plus a scrub of
// uncommitted versions (undo).
// ---------------------------------------------------------------------------

Status Database::RunRecovery() {
  recovery_stats_ = RecoveryStats{};
  bm_->SetNextPageId(1);  // catalog must be addressable
  if (bm_->nvm_pool() != nullptr) {
    SPITFIRE_RETURN_NOT_OK(bm_->RecoverNvmResidentPages());
  }

  // Discover the page-id horizon from the SSD image (NVM-resident pages
  // already advanced next_page_id above).
  {
    const page_id_t ssd_pages =
        env_.db_ssd->capacity() / kPageSize;
    page_id_t max_pid = bm_->next_page_id();
    for (page_id_t pid = 0; pid < ssd_pages; ++pid) {
      PageHeader hdr;
      SPITFIRE_RETURN_NOT_OK(
          env_.db_ssd->Read(pid * kPageSize, &hdr, sizeof(hdr)));
      if (hdr.IsValid() && hdr.page_id == pid) max_pid = std::max(max_pid, pid + 1);
    }
    bm_->SetNextPageId(std::max(bm_->next_page_id(), max_pid));
  }

  // Read the catalog: both slots, newest valid version wins. The page is
  // read from NVM when resident (NVM writes are durable at completion);
  // otherwise raw from SSD — deliberately NOT through FetchPage, so a torn
  // image is judged by the slot checksums before anything trusts it.
  CatalogPayload payload{};
  {
    std::vector<std::byte> raw(kPageSize);
    if (bm_->nvm_pool() != nullptr && bm_->IsNvmResident(kCatalogPid)) {
      auto g_r = bm_->FetchPage(kCatalogPid, AccessIntent::kRead);
      SPITFIRE_RETURN_NOT_OK(g_r.status());
      SPITFIRE_RETURN_NOT_OK(g_r.value().ReadAt(0, kPageSize, raw.data()));
    } else {
      SPITFIRE_RETURN_NOT_OK(
          env_.db_ssd->Read(kCatalogPid * kPageSize, raw.data(), kPageSize));
    }
    bool found = false;
    CatalogSlot best{};
    for (size_t s = 0; s < 2; ++s) {
      CatalogSlot slot;
      std::memcpy(&slot, raw.data() + kPageHeaderSize + s * kCatalogSlotStride,
                  sizeof(slot));
      if (slot.Valid() && (!found || slot.version > best.version)) {
        best = slot;
        found = true;
      }
    }
    if (!found) return Status::Corruption("catalog page invalid");
    payload = best.payload;
    catalog_version_ = best.version;
  }

  // Re-create tables with fresh indexes (the pre-crash index pages may be
  // inconsistent; they are abandoned and rebuilt from the heap).
  for (uint32_t i = 0; i < payload.num_tables; ++i) {
    const CatalogEntry& e = payload.entries[i];
    auto idx_r = BTree::Create(bm_.get());
    SPITFIRE_RETURN_NOT_OK(idx_r.status());
    std::unique_ptr<BTree> index(idx_r.value());
    Table::Options topts;
    topts.table_id = e.table_id;
    topts.tuple_size = e.tuple_size;
    auto table = std::make_unique<Table>(topts, bm_.get(), &tm_, index.get(),
                                         lm_.get());
    std::lock_guard<std::mutex> g(schema_mu_);
    tables_[e.table_id] =
        TableEntry{std::move(index), std::move(table), e.tuple_size};
  }

  // Classify surviving pages; heap pages are adopted by their tables.
  // NVM-resident copies are trusted (NVM writes are durable at
  // completion). SSD-only pages are read raw and checksum-verified — a
  // mismatch is the signature of a torn or short page write, and such a
  // page is quarantined, never adopted.
  std::vector<page_id_t> quarantined;
  {
    const page_id_t horizon_pid = bm_->next_page_id();
    std::vector<std::byte> frame(kPageSize);
    for (page_id_t pid = 1; pid < horizon_pid; ++pid) {
      PageHeader hdr{};
      if (bm_->nvm_pool() != nullptr && bm_->IsNvmResident(pid)) {
        auto g_r = bm_->FetchPage(pid, AccessIntent::kRead);
        if (!g_r.ok()) continue;
        SPITFIRE_RETURN_NOT_OK(g_r.value().ReadAt(0, sizeof(hdr), &hdr));
      } else {
        if (!env_.db_ssd->Read(pid * kPageSize, frame.data(), kPageSize)
                 .ok()) {
          continue;
        }
        std::memcpy(&hdr, frame.data(), sizeof(hdr));
        if (hdr.IsValid() && hdr.page_id == pid &&
            !VerifyPageChecksum(frame.data())) {
          quarantined.push_back(pid);
          continue;
        }
      }
      if (!hdr.IsValid() || hdr.page_id != pid) continue;
      if (IsHeapPageType(hdr.page_type)) {
        Table* t = GetTable(HeapPageTableId(hdr.page_type));
        if (t != nullptr) t->AdoptPage(pid);
      }
    }
  }
  recovery_stats_.quarantined_pages = quarantined.size();

  if (!quarantined.empty()) {
    // A torn page may have destroyed heap state at or below the durable
    // redo horizon, so the horizon is void. Clear it BEFORE the healing
    // writes below: a crash after healing but before recovery finishes
    // must not let the NEXT recovery trust a horizon whose heap
    // prerequisites no longer exist. Full-log redo then rebuilds the lost
    // content — the log file is never truncated, so it always reaches
    // back far enough.
    if (lm_ != nullptr) SPITFIRE_RETURN_NOT_OK(lm_->SetDurableHorizon(0));
    const std::byte zeroed[sizeof(PageHeader)] = {};
    for (page_id_t pid : quarantined) {
      SPITFIRE_RETURN_NOT_OK(
          env_.db_ssd->Write(pid * kPageSize, zeroed, sizeof(zeroed)));
    }
    SPITFIRE_RETURN_NOT_OK(env_.db_ssd->Persist(0, 0));
  }

  // Rebuild indexes from the heap, scrubbing uncommitted versions.
  timestamp_t max_ts = 0;
  {
    std::lock_guard<std::mutex> g(schema_mu_);
    for (auto& [id, entry] : tables_) {
      SPITFIRE_RETURN_NOT_OK(entry.table->RebuildFromHeap(&max_ts));
    }
  }

  // Analysis + redo from the log. With a clean checkpoint horizon and no
  // quarantined pages, committed work at or below the horizon is already
  // durable in the heap and its redo is skipped — recovery time tracks
  // the log written since the last checkpoint, not the total log.
  if (lm_ != nullptr) {
    auto recs_r = lm_->ReadAll();
    SPITFIRE_RETURN_NOT_OK(recs_r.status());
    const std::vector<LogRecord>& recs = recs_r.value();
    recovery_stats_.log_records = recs.size();
    const timestamp_t redo_horizon =
        quarantined.empty() ? lm_->durable_horizon() : 0;
    std::set<txn_id_t> committed;
    for (const LogRecord& r : recs) {
      max_ts = std::max(max_ts, r.txn_id);
      if (r.type == LogRecordType::kCommit) committed.insert(r.txn_id);
    }
    const auto is_redo = [&committed](const LogRecord& r) {
      return (r.type == LogRecordType::kInsert ||
              r.type == LogRecordType::kUpdate ||
              r.type == LogRecordType::kDelete) &&
             committed.count(r.txn_id) != 0;
    };
    // An update record holds only the bytes it changed, so its redo needs
    // the version it was written over. A key's records are in timestamp
    // order, and the heap holds each key's last version at or below the
    // horizon — unless GC freed it after the checkpoint in favour of a
    // newer version whose page never became durable. Such a key is
    // replayed from its first record: the log is never truncated.
    using TableKey = std::pair<uint32_t, uint64_t>;
    std::map<TableKey, timestamp_t> settled;  // last write at/below horizon
    std::set<TableKey> redone_above;
    for (const LogRecord& r : recs) {
      if (!is_redo(r)) continue;
      if (r.txn_id <= redo_horizon) {
        settled[{r.table_id, r.key}] = r.txn_id;
      } else {
        redone_above.insert({r.table_id, r.key});
      }
    }
    std::set<TableKey> replay_whole;
    for (const TableKey& k : redone_above) {
      auto it = settled.find(k);
      Table* t = GetTable(k.first);
      if (it == settled.end() || t == nullptr) continue;
      SPITFIRE_ASSIGN_OR_RETURN(const timestamp_t head_ts,
                                t->RecoveryHeadTs(k.second));
      if (head_ts < it->second) replay_whole.insert(k);
    }
    for (const LogRecord& r : recs) {
      if (!is_redo(r)) continue;
      if (r.txn_id <= redo_horizon &&
          replay_whole.count({r.table_id, r.key}) == 0) {
        ++recovery_stats_.redo_skipped;
        continue;
      }
      Table* t = GetTable(r.table_id);
      if (t == nullptr) continue;
      SPITFIRE_RETURN_NOT_OK(t->RecoveryApply(r));
      ++recovery_stats_.redo_applied;
    }
  }
  tm_.AdvanceTo(max_ts + 1);

  // No transaction is active, so every tombstone the heap scan found or
  // redo replayed can be reclaimed now. A tombstone at or below the
  // durable horizon has no later record of its key, so the horizon is
  // voided first, as for a quarantine: a crash before the checkpoint
  // below then replays the whole log.
  {
    std::lock_guard<std::mutex> g(schema_mu_);
    timestamp_t oldest = kMaxTimestamp;
    for (auto& [id, entry] : tables_) {
      oldest = std::min(oldest, entry.table->oldest_recovered_tombstone());
    }
    if (lm_ != nullptr && oldest <= lm_->durable_horizon()) {
      SPITFIRE_RETURN_NOT_OK(lm_->SetDurableHorizon(0));
    }
    for (auto& [id, entry] : tables_) {
      entry.table->ReclaimRecoveredTombstones(tm_.MinActiveTs());
    }
  }

  // Persist the rebuilt catalog (fresh index roots) and checkpoint. A
  // crash anywhere in this tail must leave the database re-recoverable:
  // the catalog write is slot-versioned, the checkpoint's flush writes
  // checksummed pages (a tear quarantines on the next recovery), and the
  // horizon only advances after a clean sweep.
  SPITFIRE_RETURN_NOT_OK(WriteCatalog());
  FaultInjector::Point("recovery.before_checkpoint");
  return Checkpoint();
}

}  // namespace spitfire
