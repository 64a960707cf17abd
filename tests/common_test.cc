#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/page.h"
#include "common/checksum.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace spitfire {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: page 7");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfMemory().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::IoError().code(), StatusCode::kIoError);
  EXPECT_EQ(Status::InvalidArgument().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Aborted().code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Busy().code(), StatusCode::kBusy);
  EXPECT_EQ(Status::Corruption().code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported().code(), StatusCode::kNotSupported);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Busy("later"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBusy());
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

TEST(XoshiroTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(XoshiroTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(XoshiroTest, NextUint64InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(XoshiroTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(XoshiroTest, BernoulliExtremes) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
}

TEST(XoshiroTest, BernoulliApproximatesProbability) {
  Xoshiro256 rng(99);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.2);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  ZipfianGenerator z(100, 0.0);
  Xoshiro256 rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Next(rng)]++;
  // Every key should appear; roughly uniform.
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(ZipfianTest, SkewConcentratesOnSmallKeys) {
  ZipfianGenerator z(1000, 0.9);
  Xoshiro256 rng(5);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) head += (z.Next(rng) < 10);
  // With theta=0.9 the top-10 keys take a large share.
  EXPECT_GT(head, n / 4);
}

TEST(ZipfianTest, OutputAlwaysInRange) {
  ZipfianGenerator z(37, 0.5);
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(rng), 37u);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator z(1000, 0.9);
  Xoshiro256 rng(5);
  std::set<uint64_t> distinct;
  for (int i = 0; i < 1000; ++i) distinct.insert(z.Next(rng));
  // Hashing should spread the head across the key space.
  EXPECT_GT(distinct.size(), 100u);
  for (uint64_t v : distinct) EXPECT_LT(v, 1000u);
}

TEST(ThreadLocalRngTest, DistinctAcrossThreads) {
  uint64_t a = 0, b = 0;
  std::thread t1([&] { a = ThreadLocalRng().Next(); });
  std::thread t2([&] { b = ThreadLocalRng().Next(); });
  t1.join();
  t2.join();
  EXPECT_NE(a, b);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v : {10, 20, 30, 40, 50}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 50u);
  EXPECT_DOUBLE_EQ(h.Mean(), 30.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(5);
  b.Add(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.NextUint64(1000000));
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  SpinWaitNanos(1000000);  // 1 ms
  EXPECT_GE(t.ElapsedNanos(), 900000u);
}

// A stamped 16 KB page image: a valid header and random payload bytes.
std::vector<std::byte> StampedPage(uint64_t seed, lsn_t lsn) {
  std::vector<std::byte> frame(kPageSize);
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < kPageSize; i += sizeof(uint64_t)) {
    const uint64_t w = rng.Next();
    std::memcpy(frame.data() + i, &w, sizeof(w));
  }
  PageHeader hdr;
  hdr.page_id = 7;
  hdr.page_lsn = lsn;
  std::memcpy(frame.data(), &hdr, sizeof(hdr));
  StampPageChecksum(frame.data());
  return frame;
}

TEST(ChecksumTest, EveryOneBitFlipFailsPageVerify) {
  std::vector<std::byte> frame = StampedPage(1, 10);
  ASSERT_TRUE(VerifyPageChecksum(frame.data()));
  for (size_t off = 0; off < kPageSize; ++off) {
    const auto bit = static_cast<std::byte>(1u << (off % 8));
    frame[off] ^= bit;
    EXPECT_FALSE(VerifyPageChecksum(frame.data())) << "offset " << off;
    frame[off] ^= bit;
  }
  EXPECT_TRUE(VerifyPageChecksum(frame.data()));
}

TEST(ChecksumTest, TornPageFailsVerifyAtEverySectorBoundary) {
  // A write torn at a 512 B sector or 4 KB block boundary leaves the new
  // image's prefix in front of the old image's suffix. The new image is
  // the old one with a later LSN and one changed word in every sector.
  const std::vector<std::byte> old_img = StampedPage(2, 10);
  std::vector<std::byte> new_img = old_img;
  PageHeader hdr;
  std::memcpy(&hdr, new_img.data(), sizeof(hdr));
  hdr.page_lsn = 11;
  std::memcpy(new_img.data(), &hdr, sizeof(hdr));
  for (size_t sector = 512; sector < kPageSize; sector += 512) {
    new_img[sector + 100] ^= std::byte{0x5a};
  }
  StampPageChecksum(new_img.data());
  for (size_t cut = 512; cut < kPageSize; cut += 512) {
    std::vector<std::byte> torn = old_img;
    std::memcpy(torn.data(), new_img.data(), cut);
    EXPECT_FALSE(VerifyPageChecksum(torn.data())) << "torn at " << cut;
  }
}

TEST(ChecksumTest, SwappingTwoWordsChangesTheSum) {
  std::vector<uint64_t> words(kPageSize / sizeof(uint64_t));
  Xoshiro256 rng(4);
  for (uint64_t& w : words) w = rng.Next();
  const size_t n = words.size() * sizeof(uint64_t);
  const uint64_t base = Checksum64(words.data(), n);
  // Pairs in one lane (distance 4), in neighbouring lanes, and far apart.
  const std::pair<size_t, size_t> pairs[] = {
      {0, 1}, {0, 4}, {5, 9}, {3, 6}, {100, 1000}, {0, words.size() - 1}};
  for (const auto& [i, j] : pairs) {
    ASSERT_NE(words[i], words[j]);
    std::swap(words[i], words[j]);
    EXPECT_NE(Checksum64(words.data(), n), base) << i << " <-> " << j;
    std::swap(words[i], words[j]);
  }
}

TEST(ChecksumTest, ShortInputsDifferingInOneByteDiffer) {
  unsigned char buf[32];
  Xoshiro256 rng(5);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t len = 1; len < 32; ++len) {
    const uint64_t base = Checksum64(buf, len);
    for (size_t pos = 0; pos < len; ++pos) {
      const unsigned char orig = buf[pos];
      for (unsigned v = 0; v < 256; ++v) {
        if (v == orig) continue;
        buf[pos] = static_cast<unsigned char>(v);
        ASSERT_NE(Checksum64(buf, len), base)
            << "len " << len << " pos " << pos << " value " << v;
      }
      buf[pos] = orig;
    }
    // The zero padding of a partial block cannot alias a longer input.
    unsigned char padded[32] = {};
    std::memcpy(padded, buf, len);
    EXPECT_NE(Checksum64(padded, len + 1), Checksum64(padded, len))
        << "len " << len;
  }
}

TEST(ChecksumTest, ZeroMeansUnstamped) {
  std::vector<std::byte> frame = StampedPage(6, 12);
  const uint64_t zero = 0;
  std::memcpy(frame.data() + offsetof(PageHeader, checksum), &zero,
              sizeof(zero));
  EXPECT_TRUE(VerifyPageChecksum(frame.data()));
  frame[kPageSize - 1] ^= std::byte{0xff};
  EXPECT_TRUE(VerifyPageChecksum(frame.data()));
  // A stamp is never 0, so a stamped image is never mistaken for one.
  StampPageChecksum(frame.data());
  uint64_t stored = 0;
  std::memcpy(&stored, frame.data() + offsetof(PageHeader, checksum),
              sizeof(stored));
  EXPECT_NE(stored, 0u);
  EXPECT_NE(Checksum64(nullptr, 0), 0u);
}

}  // namespace
}  // namespace spitfire
