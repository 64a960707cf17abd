#include <gtest/gtest.h>

#include <thread>

#include "storage/nvm_device.h"
#include "storage/perf_model.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"
#include "wal/nvm_log_buffer.h"

namespace spitfire {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { LatencySimulator::SetScale(0.0); }
  void TearDown() override { LatencySimulator::SetScale(1.0); }

  static LogRecord MakeUpdate(txn_id_t txn, uint64_t key, char fill) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = txn;
    r.table_id = 3;
    r.key = key;
    r.offset = 40;
    r.before.assign(16, std::byte{static_cast<unsigned char>(fill)});
    r.after.assign(16, std::byte{static_cast<unsigned char>(fill + 1)});
    return r;
  }
};

TEST_F(WalTest, RecordRoundTrip) {
  LogRecord r = MakeUpdate(7, 99, 'a');
  std::vector<std::byte> buf;
  r.SerializeTo(&buf);
  EXPECT_EQ(buf.size(), r.SerializedSize());
  size_t consumed = 0;
  auto d = LogRecord::Deserialize(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(d.value().txn_id, 7u);
  EXPECT_EQ(d.value().key, 99u);
  EXPECT_EQ(d.value().offset, 40u);
  EXPECT_EQ(d.value().before, r.before);
  EXPECT_EQ(d.value().after, r.after);
}

TEST_F(WalTest, DeserializeRejectsTruncation) {
  LogRecord r = MakeUpdate(1, 2, 'x');
  std::vector<std::byte> buf;
  r.SerializeTo(&buf);
  size_t consumed;
  EXPECT_FALSE(LogRecord::Deserialize(buf.data(), 10, &consumed).ok());
  EXPECT_FALSE(
      LogRecord::Deserialize(buf.data(), buf.size() - 1, &consumed).ok());
}

TEST_F(WalTest, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(64, std::byte{0x5A});
  size_t consumed;
  EXPECT_FALSE(LogRecord::Deserialize(junk.data(), junk.size(), &consumed).ok());
}

TEST_F(WalTest, NvmLogBufferAppendAndDrain) {
  NvmDevice nvm(1 << 16);
  NvmLogBuffer buf(&nvm, 0, 1 << 16);
  ASSERT_TRUE(buf.Format(0).ok());
  const char data[] = "hello wal";
  auto lsn1 = buf.Append(reinterpret_cast<const std::byte*>(data), 9);
  ASSERT_TRUE(lsn1.ok());
  EXPECT_EQ(lsn1.value(), 0u);
  auto lsn2 = buf.Append(reinterpret_cast<const std::byte*>(data), 9);
  ASSERT_TRUE(lsn2.ok());
  EXPECT_EQ(lsn2.value(), 9u);
  EXPECT_EQ(buf.StagedBytes(), 18u);

  std::vector<std::byte> out;
  auto first = buf.Peek(&out);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0u);
  EXPECT_EQ(out.size(), 18u);
  EXPECT_EQ(buf.StagedBytes(), 18u);  // Peek consumes nothing
  ASSERT_TRUE(buf.MarkDrained(out.size()).ok());
  EXPECT_EQ(buf.StagedBytes(), 0u);
  EXPECT_EQ(buf.base_lsn(), 18u);
}

TEST_F(WalTest, NvmLogBufferRejectsOverflow) {
  NvmDevice nvm(256);
  NvmLogBuffer buf(&nvm, 0, 256);  // 192 usable
  ASSERT_TRUE(buf.Format(0).ok());
  std::vector<std::byte> big(300);
  EXPECT_TRUE(buf.Append(big.data(), big.size()).status().IsOutOfMemory());
}

TEST_F(WalTest, NvmLogBufferSurvivesReattach) {
  NvmDevice nvm(1 << 16);
  {
    NvmLogBuffer buf(&nvm, 0, 1 << 16);
    ASSERT_TRUE(buf.Format(5).ok());
    const char d[] = "persist me";
    ASSERT_TRUE(buf.Append(reinterpret_cast<const std::byte*>(d), 10).ok());
  }
  {
    NvmLogBuffer buf(&nvm, 0, 1 << 16);
    ASSERT_TRUE(buf.Attach().ok());
    EXPECT_EQ(buf.StagedBytes(), 10u);
    EXPECT_EQ(buf.base_lsn(), 5u);
  }
}

TEST_F(WalTest, LogManagerAppendDrainReadAll) {
  NvmDevice nvm(1 << 20);
  SsdDevice log_ssd(16 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 1 << 20;
  opts.log_ssd = &log_ssd;
  auto lm_r = LogManager::Create(opts);
  ASSERT_TRUE(lm_r.ok());
  auto lm = lm_r.MoveValue();

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(lm->Append(MakeUpdate(1, i, 'a')).ok());
  }
  ASSERT_TRUE(lm->Drain().ok());
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(lm->Append(MakeUpdate(2, i, 'b')).ok());
  }
  // 10 drained to the file, 5 staged on NVM; ReadAll sees all 15 in order.
  auto recs = lm->ReadAll();
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs.value().size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(recs.value()[i].key, static_cast<uint64_t>(i));
  }
}

TEST_F(WalTest, LogManagerAutoDrainsWhenStagingFull) {
  NvmDevice nvm(4096);
  SsdDevice log_ssd(16 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 4096;
  opts.log_ssd = &log_ssd;
  auto lm = LogManager::Create(opts).MoveValue();
  // Each record ~96 B; far more than the 4 KB staging can hold at once.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(lm->Append(MakeUpdate(1, i, 'c')).ok()) << i;
  }
  auto recs = lm->ReadAll();
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(recs.value().size(), 200u);
}

TEST_F(WalTest, LogManagerAttachRecoversStagedTail) {
  NvmDevice nvm(1 << 20);
  SsdDevice log_ssd(16 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 1 << 20;
  opts.log_ssd = &log_ssd;
  {
    auto lm = LogManager::Create(opts).MoveValue();
    ASSERT_TRUE(lm->Append(MakeUpdate(1, 100, 'd')).ok());
    ASSERT_TRUE(lm->Drain().ok());
    ASSERT_TRUE(lm->Append(MakeUpdate(2, 200, 'e')).ok());
    // "Crash": staged record 200 only exists in NVM.
  }
  {
    auto lm_r = LogManager::Attach(opts);
    ASSERT_TRUE(lm_r.ok()) << lm_r.status().ToString();
    auto recs = lm_r.value()->ReadAll();
    ASSERT_TRUE(recs.ok());
    ASSERT_EQ(recs.value().size(), 2u);
    EXPECT_EQ(recs.value()[0].key, 100u);
    EXPECT_EQ(recs.value()[1].key, 200u);
  }
}

TEST_F(WalTest, ConcurrentAppendsAllSurvive) {
  NvmDevice nvm(4 << 20);
  SsdDevice log_ssd(64 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 4 << 20;
  opts.log_ssd = &log_ssd;
  auto lm = LogManager::Create(opts).MoveValue();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(lm->Append(MakeUpdate(t + 1, i, 'z')).ok());
      }
    });
  }
  for (auto& th : ths) th.join();
  auto recs = lm->ReadAll();
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(recs.value().size(), kThreads * kPerThread);
  // Per-transaction record counts must be exact.
  int counts[kThreads + 1] = {};
  for (const auto& r : recs.value()) counts[r.txn_id]++;
  for (int t = 1; t <= kThreads; ++t) EXPECT_EQ(counts[t], kPerThread);
}

// Group commit: concurrent committers batch into shared groups, yet every
// commit record must survive a crash (the NVM staging buffer is
// persistent) and come back through Attach + ReadAll.
TEST_F(WalTest, GroupCommitDurableAcrossCrash) {
  NvmDevice nvm(4 << 20);
  SsdDevice log_ssd(64 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 4 << 20;
  opts.log_ssd = &log_ssd;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    auto lm = LogManager::Create(opts).MoveValue();
    std::vector<std::thread> ths;
    for (int t = 0; t < kThreads; ++t) {
      ths.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          LogRecord r;
          r.type = LogRecordType::kCommit;
          r.txn_id = static_cast<txn_id_t>(t * kPerThread + i + 1);
          auto lsn = lm->Append(r);
          ASSERT_TRUE(lsn.ok());
        }
      });
    }
    for (auto& th : ths) th.join();
    // "Crash": the LogManager is destroyed without Drain; the staged tail
    // exists only in the NVM buffer.
  }
  auto lm_r = LogManager::Attach(opts);
  ASSERT_TRUE(lm_r.ok()) << lm_r.status().ToString();
  auto recs = lm_r.value()->ReadAll();
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs.value().size(),
            static_cast<size_t>(kThreads) * kPerThread);
  // Every committed transaction is recovered exactly once.
  std::vector<int> seen(kThreads * kPerThread + 1, 0);
  for (const auto& r : recs.value()) {
    ASSERT_EQ(r.type, LogRecordType::kCommit);
    ASSERT_GE(r.txn_id, 1u);
    ASSERT_LE(r.txn_id, static_cast<txn_id_t>(kThreads * kPerThread));
    seen[r.txn_id]++;
  }
  for (int i = 1; i <= kThreads * kPerThread; ++i) EXPECT_EQ(seen[i], 1);
}

TEST_F(WalTest, DrainRacesWithAppendsLosesNothing) {
  NvmDevice nvm(1 << 20);
  SsdDevice log_ssd(64 << 20);
  LogManager::Options opts;
  opts.nvm = &nvm;
  opts.nvm_size = 1 << 20;
  opts.log_ssd = &log_ssd;
  auto lm = LogManager::Create(opts).MoveValue();
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) {
      ASSERT_TRUE(lm->Drain().ok());
      std::this_thread::yield();
    }
  });
  constexpr int kThreads = 3;
  constexpr int kPerThread = 400;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(lm->Append(MakeUpdate(t + 1, i, 'q')).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  drainer.join();
  auto recs = lm->ReadAll();
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs.value().size(), kThreads * kPerThread);
  // Per-transaction records must appear in append (key) order.
  int next_key[kThreads + 1] = {};
  for (const auto& r : recs.value()) {
    ASSERT_EQ(r.key, static_cast<uint64_t>(next_key[r.txn_id]));
    next_key[r.txn_id]++;
  }
}

}  // namespace
}  // namespace spitfire
