// Unit tests for the common substrate: RNG determinism and distribution
// sanity, combinatorial enumeration, binary serialization (including
// Byzantine-malformed payloads), instance-key hashing and PartySet.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/combinatorics.hpp"
#include "common/party_set.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "protocols/codec.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanRoughlyHalf) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kDraws, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / kDraws, 5.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  Rng parent2(23);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // Child differs from a fresh parent stream.
  Rng parent3(23);
  (void)parent3.next_u64();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.next_u64() == parent3.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(std::span<int>(w));
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// ------------------------------------------------------- combinatorics

TEST(Combinatorics, BinomialSmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
  EXPECT_EQ(binomial(3, 4), 0u);
}

TEST(Combinatorics, BinomialSymmetry) {
  for (std::uint64_t n = 0; n <= 20; ++n) {
    for (std::uint64_t k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n, n - k)) << n << " " << k;
    }
  }
}

TEST(Combinatorics, EnumerationCountMatchesBinomial) {
  for (std::size_t n = 0; n <= 9; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      std::size_t count = 0;
      for_each_combination(n, k, [&](const std::vector<std::size_t>&) { ++count; });
      EXPECT_EQ(count, binomial(n, k)) << n << " choose " << k;
    }
  }
}

TEST(Combinatorics, EnumerationIsLexicographicAndUnique) {
  std::vector<std::vector<std::size_t>> subsets;
  for_each_combination(5, 3, [&](const std::vector<std::size_t>& s) {
    subsets.push_back(s);
  });
  ASSERT_EQ(subsets.size(), 10u);
  EXPECT_EQ(subsets.front(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(subsets.back(), (std::vector<std::size_t>{2, 3, 4}));
  for (std::size_t i = 1; i < subsets.size(); ++i) {
    EXPECT_LT(subsets[i - 1], subsets[i]);
  }
}

TEST(Combinatorics, ComplementIndices) {
  const auto c = complement_indices(6, {1, 4});
  EXPECT_EQ(c, (std::vector<std::size_t>{0, 2, 3, 5}));
  EXPECT_EQ(complement_indices(3, {}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(complement_indices(2, {0, 1}).empty());
}

// ----------------------------------------------------------- serialize

TEST(Serialize, RoundTripScalars) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, RoundTripContainers) {
  Writer w;
  w.str("hello world");
  const std::vector<double> vec{1.5, -2.5, 1e-300, 1e300};
  w.f64_vec(vec);
  Bytes blob{1, 2, 3, 255};
  w.bytes(blob);
  Reader r(w.data());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.f64_vec(), vec);
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_TRUE(r.ok());
}

TEST(Serialize, SpecialDoubles) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  Reader r(w.data());
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_TRUE(r.ok());
}

TEST(Serialize, TruncatedInputReportsNotOk) {
  Writer w;
  w.u64(7);
  Bytes data = w.data();
  data.resize(4);
  Reader r(data);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, MalformedLengthPrefixDoesNotOverread) {
  // A Byzantine payload claiming a huge vector must fail cleanly.
  Writer w;
  w.u32(0xFFFFFFFF);
  Reader r(w.data());
  const auto v = r.f64_vec();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

// Regression: length prefixes near UINT32_MAX must fail via ok(), never by
// forming `pos_ + len` (which wraps on 32-bit size_t and would pass a naive
// bounds check, handing back a span into unowned memory). One case per
// prefixed reader, each with the cursor mid-buffer so pos_ > 0.
TEST(Serialize, AdversarialLengthPrefixBytes) {
  for (const std::uint32_t len :
       {0xFFFFFFFFu, 0xFFFFFFFEu, 0xFFFFFFF0u, 0x80000000u}) {
    Writer w;
    w.u8(7);      // advance the cursor: overflow needs pos_ + len, not len
    w.u32(len);   // claimed size, vastly beyond the buffer
    w.u8(0xAB);   // one actual byte behind the lying prefix
    Reader r(w.data());
    EXPECT_EQ(r.u8(), 7u);
    const Bytes b = r.bytes();
    EXPECT_TRUE(b.empty()) << "len=" << len;
    EXPECT_FALSE(r.ok()) << "len=" << len;
  }
}

TEST(Serialize, AdversarialLengthPrefixStr) {
  Writer w;
  w.u64(42);
  w.u32(0xFFFFFFFF);
  Reader r(w.data());
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, AdversarialLengthPrefixF64Vec) {
  // Element counts where len * 8 overflows 32-bit size_t: the cap check must
  // reject them before any multiplication is formed.
  for (const std::uint32_t len : {0xFFFFFFFFu, 0x20000001u, 0x40000000u}) {
    Writer w;
    w.u32(len);
    w.f64(1.0);
    Reader r(w.data());
    EXPECT_TRUE(r.f64_vec().empty()) << "len=" << len;
    EXPECT_FALSE(r.ok()) << "len=" << len;
  }
}

TEST(Serialize, LengthPrefixExactlyRemainingIsAccepted) {
  // Boundary sanity for the overflow-safe rewrite: a prefix equal to the
  // exact remaining byte count still decodes (off-by-one guard).
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, FailedReaderStaysFailed) {
  // ok_ is sticky: after a lying prefix every later read returns zero values
  // and the reader never "recovers" into trusting the stream again.
  Writer w;
  w.u32(0xFFFFFFFF);
  w.u32(5);
  Reader r(w.data());
  (void)r.bytes();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, EmptyContainers) {
  Writer w;
  w.str("");
  w.f64_vec({});
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

// ----------------------------------------------------------- InstanceKey

TEST(InstanceKey, OrderingAndEquality) {
  const InstanceKey a{1, 2, 3};
  const InstanceKey b{1, 2, 4};
  const InstanceKey c{1, 2, 3};
  EXPECT_EQ(a, c);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(InstanceKey, HashSpreads) {
  InstanceKeyHash h;
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t tag = 0; tag < 10; ++tag) {
    for (std::uint32_t a = 0; a < 10; ++a) {
      for (std::uint32_t b = 0; b < 10; ++b) {
        hashes.insert(h(InstanceKey{tag, a, b}));
      }
    }
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on this dense grid
}

// ---------------------------------------------------------------- PartySet

TEST(PartySet, InsertReportsNewIdsAndCountsOnce) {
  PartySet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(0));
  EXPECT_FALSE(s.insert(3));  // duplicate
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(1000));  // beyond any stored word
}

TEST(PartySet, IdsAcrossTheInlineWordBoundary) {
  // 63 is the last inline id; 64, 127 and 200 live in heap words.
  PartySet s;
  for (const PartyId id : {200u, 64u, 63u, 127u}) EXPECT_TRUE(s.insert(id));
  for (const PartyId id : {200u, 64u, 63u, 127u}) EXPECT_FALSE(s.insert(id));
  EXPECT_EQ(s.size(), 4u);
  for (const PartyId id : {63u, 64u, 127u, 200u}) EXPECT_TRUE(s.contains(id));
  for (const PartyId id : {0u, 62u, 65u, 126u, 128u, 199u, 201u}) {
    EXPECT_FALSE(s.contains(id));
  }
  EXPECT_EQ(std::vector<PartyId>(s.begin(), s.end()),
            (std::vector<PartyId>{63, 64, 127, 200}));
}

TEST(PartySet, IteratesAscendingLikeASortedSet) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    PartySet dense;
    std::set<PartyId> sorted;
    for (int i = 0; i < 40; ++i) {
      const auto id = static_cast<PartyId>(rng.next_below(300));
      EXPECT_EQ(dense.insert(id), sorted.insert(id).second);
    }
    EXPECT_EQ(dense.size(), sorted.size());
    EXPECT_EQ(std::vector<PartyId>(dense.begin(), dense.end()),
              std::vector<PartyId>(sorted.begin(), sorted.end()));
  }
  const PartySet none;
  EXPECT_EQ(none.begin(), none.end());
}

TEST(PartySet, SubsetAndEquality) {
  const PartySet small{1, 5, 70};
  const PartySet big{0, 1, 5, 70, 130};
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(PartySet{}.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
  // A member in a heap word the other set never allocated.
  EXPECT_FALSE((PartySet{1, 130}).is_subset_of(PartySet{1, 5}));
  EXPECT_FALSE((PartySet{1, 6}).is_subset_of(PartySet{1, 5, 70}));
  // Equality ignores how many heap words each side has allocated.
  PartySet grown{2};
  grown.insert(190);
  EXPECT_NE(grown, PartySet{2});
  EXPECT_EQ(PartySet({2, 190}), grown);
}

TEST(PartySet, CodecBytesMatchTheSortedSetEncoding) {
  // The wire format predates PartySet: a u32 count, then the ids ascending.
  for (const std::set<PartyId>& ids :
       {std::set<PartyId>{}, std::set<PartyId>{4, 0, 2},
        std::set<PartyId>{63, 64, 127, 200}}) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (const PartyId p : ids) w.u32(p);
    const PartySet dense(ids);
    const Bytes encoded = protocols::encode_party_set(dense);
    EXPECT_EQ(encoded, w.data());
    const auto decoded = protocols::decode_party_set(encoded, 256);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, dense);
    EXPECT_EQ(protocols::encode_party_set(*decoded), encoded);
  }
  // Duplicates and out-of-range ids are still rejected.
  Writer dup;
  dup.u32(2);
  dup.u32(7);
  dup.u32(7);
  EXPECT_FALSE(protocols::decode_party_set(dup.data(), 16).has_value());
  EXPECT_FALSE(protocols::decode_party_set(
                   protocols::encode_party_set(PartySet{3, 16}), 16)
                   .has_value());
}

}  // namespace
}  // namespace hydra
