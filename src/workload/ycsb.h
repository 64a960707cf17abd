#ifndef SPITFIRE_WORKLOAD_YCSB_H_
#define SPITFIRE_WORKLOAD_YCSB_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "workload/txn_machine.h"

namespace spitfire {

// YCSB (Cooper et al. [6]) as configured in Section 6.1: one table of
// tuples with a 4 B key and ten 100 B string columns (~1 KB per tuple),
// keys drawn from a scrambled zipfian distribution, and two transaction
// types (point read, point update). The three mixtures are:
//   YCSB-RO  100% reads
//   YCSB-BA   50% reads, 50% updates
//   YCSB-WH   10% reads, 90% updates
struct YcsbConfig {
  uint64_t num_tuples = 100'000;
  double zipf_theta = 0.3;
  double read_ratio = 1.0;
  uint32_t table_id = 1;
  // Fraction of transactions that run a short range scan instead of a
  // point op (YCSB-E flavor); the remainder splits read/update by
  // read_ratio. Defaults preserve the original two-op mixes.
  double scan_ratio = 0.0;
  uint64_t scan_length = 100;

  static YcsbConfig ReadOnly(uint64_t n = 100'000) {
    return {n, 0.3, 1.0, 1};
  }
  static YcsbConfig Balanced(uint64_t n = 100'000) { return {n, 0.3, 0.5, 1}; }
  static YcsbConfig WriteHeavy(uint64_t n = 100'000) {
    return {n, 0.3, 0.1, 1};
  }
};

class YcsbWorkload {
 public:
  static constexpr size_t kColumns = 10;
  static constexpr size_t kColumnSize = 100;
  static constexpr size_t kTupleSize = kColumns * kColumnSize;

  YcsbWorkload(Database* db, const YcsbConfig& config);

  // Creates the table and bulk-loads num_tuples records.
  Status Load();

  // Executes one YCSB transaction with this thread's RNG: a YcsbTxnMachine
  // stepped without a context. Returns OK on commit, Aborted on an MVTO
  // conflict (the transaction is rolled back).
  Status RunTransaction(Xoshiro256& rng);

  // Touches every tuple once (used to warm the buffer pool).
  Status WarmUp();

  const YcsbConfig& config() const { return config_; }
  Table* table() { return table_; }
  Database* db() { return db_; }

  // Draws a key from the workload's zipfian.
  uint64_t SampleKey(Xoshiro256& rng) { return zipf_.Next(rng); }

 private:
  static void FillTuple(Xoshiro256& rng, std::byte* out);

  Database* db_;
  YcsbConfig config_;
  Table* table_ = nullptr;
  ScrambledZipfianGenerator zipf_;
};

// One YCSB transaction as a parked continuation (see TxnMachine): phases
// kRead → [kUpdate], or kScan for the scan flavor. The decisions are drawn
// in this order when the transaction begins: key, read-or-update, the new
// column value, scan-or-point.
class YcsbTxnMachine : public DbTxnMachine {
 public:
  explicit YcsbTxnMachine(YcsbWorkload* workload);

 private:
  enum class Phase : uint8_t { kRead, kUpdate, kScan };

  void Draw(Xoshiro256& rng) override;
  Status Resume() override;

  YcsbWorkload* w_;
  Phase phase_ = Phase::kRead;
  uint64_t key_ = 0;
  bool is_read_ = true;
  uint64_t update_value_ = 0;
  std::vector<std::byte> tuple_;
};

}  // namespace spitfire

#endif  // SPITFIRE_WORKLOAD_YCSB_H_
