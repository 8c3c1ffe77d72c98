#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"

namespace unicc {
namespace {

TEST(TxnSpecTest, ValidSpec) {
  TxnSpec t;
  t.read_set = {1, 2};
  t.write_set = {3};
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.NumRequests(), 3u);
}

TEST(TxnSpecTest, RejectsEmptyAccess) {
  TxnSpec t;
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TxnSpecTest, RejectsOverlap) {
  TxnSpec t;
  t.read_set = {1};
  t.write_set = {1};
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TxnSpecTest, RejectsDuplicates) {
  TxnSpec t;
  t.read_set = {1, 1};
  EXPECT_FALSE(t.Validate().ok());
  TxnSpec u;
  u.write_set = {2, 2};
  EXPECT_FALSE(u.Validate().ok());
}

// The reference duplicate check: sort a copy.
bool SortedCopyHasDuplicate(std::vector<ItemId> v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) != v.end();
}

// Validate's verdict on `items` as a read set and as a write set; both
// must agree.
bool ValidateFindsDuplicate(const std::vector<ItemId>& items) {
  TxnSpec r;
  r.read_set = items;
  TxnSpec w;
  w.write_set = items;
  const Status rs = r.Validate();
  const Status ws = w.Validate();
  EXPECT_EQ(rs.ok(), ws.ok());
  if (!rs.ok()) {
    EXPECT_EQ(rs.message(), "duplicate item in access set");
  }
  return !rs.ok();
}

TEST(TxnSpecTest, DuplicateCheckMatchesSortedCopy) {
  Rng rng(20);
  int with_dup = 0;
  int without = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t n = 1 + rng.UniformInt(200);
    // Distinct items in random order; half the sets then copy one item
    // over another (possibly itself).
    std::vector<ItemId> items(n);
    for (std::size_t i = 0; i < n; ++i) {
      items[i] = static_cast<ItemId>(3 * i + rng.UniformInt(3));
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(items[i - 1], items[rng.UniformInt(i)]);
    }
    if (rng.Bernoulli(0.5)) {
      items[rng.UniformInt(n)] = items[rng.UniformInt(n)];
    }
    const bool want = SortedCopyHasDuplicate(items);
    ASSERT_EQ(ValidateFindsDuplicate(items), want) << "n=" << n;
    ++(want ? with_dup : without);
  }
  EXPECT_GT(with_dup, 1000);
  EXPECT_GT(without, 1000);
}

// Longest first, so shorter scans reuse the scratch buffer a longer one
// grew.
TEST(TxnSpecTest, DuplicateAtBothEndsOfAScan) {
  for (std::size_t n : {200, 40, 2}) {
    std::vector<ItemId> scan(n);
    std::iota(scan.begin(), scan.end(), ItemId{100});
    EXPECT_FALSE(ValidateFindsDuplicate(scan)) << "n=" << n;
    scan.back() = scan.front();
    EXPECT_TRUE(ValidateFindsDuplicate(scan)) << "n=" << n;
  }
}

TEST(TimestampGeneratorTest, StrictlyIncreasing) {
  TimestampGenerator gen;
  Timestamp prev = 0;
  for (SimTime now : {0u, 0u, 5u, 5u, 5u, 100u}) {
    const Timestamp ts = gen.Next(now);
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

TEST(TimestampGeneratorTest, TracksSimTime) {
  TimestampGenerator gen;
  EXPECT_GE(gen.Next(1000), 1000u);
}

TEST(TimestampGeneratorTest, ObservePullsForward) {
  TimestampGenerator gen;
  gen.Observe(500);
  EXPECT_GT(gen.Next(0), 500u);
}

TEST(TxnResultTest, SystemTime) {
  TxnResult r;
  r.arrival = 100;
  r.commit = 350;
  EXPECT_EQ(r.SystemTime(), 250u);
}

}  // namespace
}  // namespace unicc
