#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
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

// Sets of 0-12 items check duplicates pair by pair instead of sorting;
// the verdict and its message must be the sort-based reference's, for
// each set alone and for the pair (empty union, overlap, duplicates).
TEST(TxnSpecTest, SmallSetVerdictMatchesSortBasedReference) {
  Rng rng(21);
  int valid = 0;
  int invalid = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    // A domain about the size of the sets makes duplicates and overlaps
    // common; a wide one makes them rare.
    const std::uint64_t domain = rng.Bernoulli(0.5) ? 16 : 1000000;
    auto draw = [&] {
      std::vector<ItemId> v(rng.UniformInt(13));
      for (ItemId& item : v) {
        item = static_cast<ItemId>(rng.UniformInt(domain));
      }
      return v;
    };
    TxnSpec t;
    t.read_set = draw();
    t.write_set = draw();
    // The reference, in Validate's order: empty union, then overlap
    // (found by binary search in a sorted copy), then duplicates.
    std::vector<ItemId> sorted_reads = t.read_set;
    std::sort(sorted_reads.begin(), sorted_reads.end());
    const bool overlap = std::any_of(
        t.write_set.begin(), t.write_set.end(), [&](ItemId w) {
          return std::binary_search(sorted_reads.begin(), sorted_reads.end(),
                                    w);
        });
    std::string want;
    if (t.read_set.empty() && t.write_set.empty()) {
      want = "transaction accesses no items";
    } else if (overlap) {
      want = "read_set and write_set must be disjoint (a read-then-write "
             "item belongs in write_set only)";
    } else if (SortedCopyHasDuplicate(t.read_set) ||
               SortedCopyHasDuplicate(t.write_set)) {
      want = "duplicate item in access set";
    }
    const Status got = t.Validate();
    ASSERT_EQ(got.ok(), want.empty())
        << "reads " << t.read_set.size() << " writes " << t.write_set.size();
    if (!want.empty()) {
      ASSERT_EQ(got.message(), want);
    }
    ++(want.empty() ? valid : invalid);
    // The read set alone, as a read set and as a write set.
    if (!t.read_set.empty()) {
      ASSERT_EQ(ValidateFindsDuplicate(t.read_set),
                SortedCopyHasDuplicate(t.read_set));
    }
  }
  EXPECT_GT(valid, 4000);
  EXPECT_GT(invalid, 4000);
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
