#ifndef SPITFIRE_DB_DATABASE_H_
#define SPITFIRE_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "buffer/buffer_manager.h"
#include "db/table.h"
#include "index/btree.h"
#include "storage/dram_device.h"
#include "storage/ssd_device.h"
#include "txn/mvto_manager.h"
#include "wal/checkpointer.h"
#include "wal/log_manager.h"

namespace spitfire {

// Configuration of an embedded Spitfire database instance.
struct DatabaseOptions {
  // Buffer hierarchy (0 frames removes the tier).
  size_t dram_frames = 256;
  size_t nvm_frames = 0;
  // The buffer manager is one engine and has no shards. The field is kept
  // only because perfbench (perfbench/perfbench.cc) still sets it to 1;
  // Create and Recover refuse any value above 1.
  size_t num_shards = 1;
  MigrationPolicy policy = MigrationPolicy::Eager();
  // HyMem's modes (admission queue, cache-line-grained loading, mini
  // pages) and memory mode are set on BufferManagerOptions only. Tables
  // and the B+Tree read every page through RawData(), which turns a
  // cache-line-grained or mini copy into a full frame on first touch.

  // Devices.
  uint64_t ssd_capacity = 256ull * 1024 * 1024;
  std::string ssd_path;  // empty → memory-backed simulated SSD

  // Write-ahead logging (Section 5.2). The log stages in NVM; when there
  // is no NVM in the hierarchy, it stages in DRAM and every commit forces
  // a drain to SSD (group commit without NVM) — the recovery-overhead
  // contrast the paper draws in Sections 6.2/6.6.
  bool enable_wal = true;
  uint64_t log_staging_size = 4ull * 1024 * 1024;
  uint64_t log_ssd_capacity = 256ull * 1024 * 1024;
  // Period of the background checkpointer's flush rounds; 0 = no
  // background checkpointer.
  uint64_t checkpoint_interval_ms = 0;
};

// The simulated persistent devices backing a database. They outlive the
// Database object so tests and examples can crash an instance (destroy the
// Database) and recover a new one from the same devices.
struct DatabaseEnv {
  std::unique_ptr<SsdDevice> db_ssd;
  std::unique_ptr<SsdDevice> log_ssd;
  std::unique_ptr<NvmDevice> nvm;
};

// Embedded multi-threaded database engine assembled from the paper's
// components: the Spitfire three-tier buffer manager, MVTO concurrency
// control, a concurrent B+Tree per table, and NVM-aware write-ahead
// logging with ARIES-style (analysis/redo/scrub) recovery.
//
// Shutdown semantics: destroying a Database does NOT flush buffers — with
// WAL enabled every committed transaction is already durable, and plain
// destruction is equivalent to a crash (recoverable via Recover()). Call
// Checkpoint() before shutdown to bound the next recovery's redo work.
class Database {
 public:
  ~Database();
  SPITFIRE_DISALLOW_COPY_AND_MOVE(Database);

  // Creates a fresh database (formats devices).
  static Result<std::unique_ptr<Database>> Create(const DatabaseOptions& opts);
  // Recovers a database from devices that survived a crash. On failure the
  // devices are normally destroyed with the half-built instance; pass
  // `env_on_error` to get them back instead, so a caller can retry — the
  // crash-during-recovery fuzz cases re-crash and re-recover in a loop.
  static Result<std::unique_ptr<Database>> Recover(
      const DatabaseOptions& opts, DatabaseEnv env,
      DatabaseEnv* env_on_error = nullptr);
  // Tears the instance down WITHOUT flushing (simulating a crash) and
  // returns the devices for a subsequent Recover().
  static DatabaseEnv Crash(std::unique_ptr<Database> db);

  // Schema. Table ids must be < 2^24 and unique.
  Result<Table*> CreateTable(uint32_t table_id, size_t tuple_size);
  Table* GetTable(uint32_t table_id);

  // Transactions.
  std::unique_ptr<Transaction> Begin();
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  // Flushes dirty DRAM pages, drains the log, and — when the flush left
  // nothing behind — advances the durable redo horizon so the next
  // recovery can skip redo of everything checkpointed here.
  Status Checkpoint();

  // Walks every table's heap and index and verifies the invariants
  // recovery promises: allocated versions are committed (no uncommitted
  // leftovers), version chains are well-formed, and the index agrees with
  // the heap. Used by the crash fuzzer's post-recovery oracle.
  Status CheckIntegrity(std::string* why = nullptr);

  // What the last RunRecovery did (zeroed outside of Recover()).
  struct RecoveryStats {
    size_t quarantined_pages = 0;  // torn SSD pages refused and healed
    size_t redo_applied = 0;
    size_t redo_skipped = 0;  // below the durable horizon
    size_t log_records = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  BufferManager* buffer_manager() { return bm_.get(); }
  TransactionManager* txn_manager() { return &tm_; }
  LogManager* log_manager() { return lm_.get(); }
  Checkpointer* checkpointer() { return ckpt_.get(); }
  const DatabaseOptions& options() const { return opts_; }
  // The live devices (e.g. for FaultInjector::AttachNvm).
  const DatabaseEnv& env() const { return env_; }

 private:
  Database(const DatabaseOptions& opts, DatabaseEnv env);

  Status InitCommon(bool fresh);
  Status WriteCatalog();
  Status RunRecovery();

  static constexpr uint32_t kCatalogPageType = 0xCA7A0001;
  static constexpr page_id_t kCatalogPid = 0;

  DatabaseOptions opts_;
  DatabaseEnv env_;
  std::unique_ptr<DramDevice> log_staging_dram_;  // when no NVM tier
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<LogManager> lm_;
  std::unique_ptr<Checkpointer> ckpt_;
  TransactionManager tm_;
  bool commit_forces_drain_ = false;
  RecoveryStats recovery_stats_;
  // Monotone catalog write counter; parity selects the on-page slot
  // (see WriteCatalog). Guarded by schema_mu_.
  uint64_t catalog_version_ = 0;

  std::mutex schema_mu_;
  struct TableEntry {
    std::unique_ptr<BTree> index;
    std::unique_ptr<Table> table;
    size_t tuple_size;
  };
  std::map<uint32_t, TableEntry> tables_;
};

}  // namespace spitfire

#endif  // SPITFIRE_DB_DATABASE_H_
