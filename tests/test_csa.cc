#include "core/csa.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lccs.h"
#include "util/random.h"

namespace lccs {
namespace core {
namespace {

std::vector<HashValue> RandomStrings(size_t n, size_t m, int alphabet,
                                     uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HashValue> data(n * m);
  for (auto& v : data) {
    v = static_cast<HashValue>(rng.NextBounded(alphabet));
  }
  return data;
}

// ---------------------------------------------------------------------------
// Build invariants (Algorithm 1).

TEST(CsaBuildTest, SortedIndicesArePermutations) {
  const size_t n = 50, m = 8;
  const auto data = RandomStrings(n, m, 4, 1);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    std::set<int32_t> ids;
    for (size_t pos = 0; pos < n; ++pos) {
      ids.insert(csa.SortedId(shift, pos));
    }
    EXPECT_EQ(ids.size(), n) << "shift " << shift;
    EXPECT_EQ(*ids.begin(), 0);
    EXPECT_EQ(*ids.rbegin(), static_cast<int32_t>(n - 1));
  }
}

TEST(CsaBuildTest, EveryShiftIsLexicographicallySorted) {
  const size_t n = 60, m = 10;
  const auto data = RandomStrings(n, m, 3, 2);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos + 1 < n; ++pos) {
      const int cmp =
          CompareShifted(csa.String(csa.SortedId(shift, pos)),
                         csa.String(csa.SortedId(shift, pos + 1)), m, shift,
                         nullptr);
      EXPECT_LE(cmp, 0) << "shift " << shift << " pos " << pos;
    }
  }
}

TEST(CsaBuildTest, NextLinksPointToSameString) {
  const size_t n = 40, m = 6;
  const auto data = RandomStrings(n, m, 5, 3);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  for (size_t shift = 0; shift < m; ++shift) {
    const size_t next_shift = (shift + 1) % m;
    for (size_t pos = 0; pos < n; ++pos) {
      const int32_t link = csa.NextPosition(shift, pos);
      ASSERT_GE(link, 0);
      ASSERT_LT(link, static_cast<int32_t>(n));
      EXPECT_EQ(csa.SortedId(next_shift, link), csa.SortedId(shift, pos));
    }
  }
}

TEST(CsaBuildTest, SingleString) {
  const std::vector<HashValue> data = {3, 1, 4};
  CircularShiftArray csa;
  csa.Build(data.data(), 1, 3);
  EXPECT_EQ(csa.n(), 1u);
  for (size_t shift = 0; shift < 3; ++shift) {
    EXPECT_EQ(csa.SortedId(shift, 0), 0);
    EXPECT_EQ(csa.NextPosition(shift, 0), 0);
  }
}

TEST(CsaBuildTest, LengthOneStrings) {
  const std::vector<HashValue> data = {5, 2, 9, 2};
  CircularShiftArray csa;
  csa.Build(data.data(), 4, 1);
  // Sorted by the single symbol: 2, 2, 5, 9 (ties by id).
  EXPECT_EQ(csa.SortedId(0, 0), 1);
  EXPECT_EQ(csa.SortedId(0, 1), 3);
  EXPECT_EQ(csa.SortedId(0, 2), 0);
  EXPECT_EQ(csa.SortedId(0, 3), 2);
}

TEST(CsaBuildTest, IdenticalStringsTieBrokenById) {
  std::vector<HashValue> data;
  for (int i = 0; i < 5; ++i) {
    data.insert(data.end(), {7, 7, 7});
  }
  CircularShiftArray csa;
  csa.Build(data.data(), 5, 3);
  for (size_t shift = 0; shift < 3; ++shift) {
    for (size_t pos = 0; pos < 5; ++pos) {
      EXPECT_EQ(csa.SortedId(shift, pos), static_cast<int32_t>(pos));
    }
  }
}

TEST(CsaBuildTest, SizeBytesAccountsForAllArrays) {
  const size_t n = 20, m = 4;
  const auto data = RandomStrings(n, m, 4, 9);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // data (n*m HashValue) + sorted (m*n int32) + next (m*n int32) +
  // neighbour LCPs (m*n bytes).
  EXPECT_EQ(csa.SizeBytes(), n * m * sizeof(HashValue) +
                                 2 * m * n * sizeof(int32_t) + m * n);
}

// ---------------------------------------------------------------------------
// SearchShift (binary search with LCP).

TEST(CsaSearchShiftTest, BoundsBracketTheQuery) {
  const size_t n = 64, m = 6;
  const auto data = RandomStrings(n, m, 3, 4);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<HashValue> q(m);
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
    for (size_t shift = 0; shift < m; ++shift) {
      const auto b =
          csa.SearchShift(q.data(), shift, 0, static_cast<int32_t>(n) - 1);
      EXPECT_EQ(b.pos_hi, b.pos_lo + 1);
      if (b.pos_lo >= 0) {
        // T_l <= Q.
        EXPECT_LE(CompareShifted(csa.String(csa.SortedId(shift, b.pos_lo)),
                                 q.data(), m, shift, nullptr),
                  0);
        EXPECT_EQ(b.len_lo,
                  csa.Lcp(csa.SortedId(shift, b.pos_lo), q.data(), shift));
      }
      if (b.pos_hi < static_cast<int32_t>(n)) {
        // T_u > Q.
        EXPECT_GT(CompareShifted(csa.String(csa.SortedId(shift, b.pos_hi)),
                                 q.data(), m, shift, nullptr),
                  0);
        EXPECT_EQ(b.len_hi,
                  csa.Lcp(csa.SortedId(shift, b.pos_hi), q.data(), shift));
      }
    }
  }
}

TEST(CsaSearchShiftTest, QueryEqualToAStringLandsOnIt) {
  const size_t n = 32, m = 5;
  auto data = RandomStrings(n, m, 6, 6);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // Use string 7 itself as the query: the lower bound must have LCP m.
  const std::vector<HashValue> q(csa.String(7), csa.String(7) + m);
  const auto b = csa.SearchShift(q.data(), 0, 0, static_cast<int32_t>(n) - 1);
  ASSERT_GE(b.pos_lo, 0);
  EXPECT_EQ(b.len_lo, static_cast<int32_t>(m));
}

// ---------------------------------------------------------------------------
// k-LCCS search (Algorithm 2) vs the brute-force oracle — the core
// correctness property of the whole paper.

struct CsaSearchCase {
  size_t n;
  size_t m;
  int alphabet;
  size_t k;
};

class CsaSearchOracle : public ::testing::TestWithParam<CsaSearchCase> {};

TEST_P(CsaSearchOracle, TopKLccsLengthsMatchBruteForce) {
  const auto param = GetParam();
  const auto data = RandomStrings(param.n, param.m, param.alphabet, 7);
  CircularShiftArray csa;
  csa.Build(data.data(), param.n, param.m);
  util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HashValue> q(param.m);
    for (auto& v : q) {
      v = static_cast<HashValue>(rng.NextBounded(param.alphabet));
    }
    const auto got = csa.Search(q.data(), param.k);
    const auto expected =
        BruteForceKLccs(data.data(), param.n, param.m, q.data(), param.k);
    ASSERT_EQ(got.size(), expected.size());
    // Ids may differ under LCCS-length ties, but the multiset of lengths is
    // uniquely determined — compare lengths position by position.
    for (size_t i = 0; i < got.size(); ++i) {
      const int32_t got_len =
          LccsLength(data.data() + got[i].id * param.m, q.data(), param.m);
      const int32_t expected_len = LccsLength(
          data.data() + expected[i] * param.m, q.data(), param.m);
      EXPECT_EQ(got_len, expected_len)
          << "rank " << i << " trial " << trial;
      // The candidate's reported len must equal its true LCCS length.
      EXPECT_EQ(got[i].len, got_len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsaSearchOracle,
    ::testing::Values(CsaSearchCase{8, 4, 2, 3}, CsaSearchCase{32, 6, 2, 5},
                      CsaSearchCase{32, 6, 4, 5}, CsaSearchCase{64, 8, 3, 8},
                      CsaSearchCase{100, 12, 3, 10},
                      CsaSearchCase{100, 12, 8, 10},
                      CsaSearchCase{200, 16, 4, 20},
                      CsaSearchCase{50, 5, 2, 50},   // k == n
                      CsaSearchCase{30, 10, 16, 5},  // sparse collisions
                      CsaSearchCase{128, 24, 2, 12}));

TEST(CsaSearchTest, ReturnsDistinctIds) {
  const size_t n = 40, m = 8;
  const auto data = RandomStrings(n, m, 2, 10);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q(m, 1);
  const auto result = csa.Search(q.data(), 20);
  std::set<int32_t> ids;
  for (const auto& c : result) ids.insert(c.id);
  EXPECT_EQ(ids.size(), result.size());
}

TEST(CsaSearchTest, KLargerThanNReturnsAllStrings) {
  const size_t n = 15, m = 4;
  const auto data = RandomStrings(n, m, 3, 11);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q = {0, 1, 2, 0};
  const auto result = csa.Search(q.data(), 100);
  EXPECT_EQ(result.size(), n);
}

TEST(CsaSearchTest, LengthsAreNonIncreasing) {
  const size_t n = 80, m = 10;
  const auto data = RandomStrings(n, m, 3, 12);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  util::Rng rng(13);
  std::vector<HashValue> q(m);
  for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(3));
  const auto result = csa.Search(q.data(), 30);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].len, result[i].len);
  }
}

TEST(CsaSearchTest, ExactMatchIsFirstCandidate) {
  const size_t n = 50, m = 8;
  auto data = RandomStrings(n, m, 4, 14);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  // Query identical to string 23.
  const std::vector<HashValue> q(csa.String(23), csa.String(23) + m);
  const auto result = csa.Search(q.data(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].len, static_cast<int32_t>(m));
  // The returned string must be *some* full-length match (ties possible).
  EXPECT_EQ(LccsLength(csa.String(result[0].id), q.data(), m),
            static_cast<int32_t>(m));
}

TEST(CsaSearchTest, StateHasOneEntryPerShift) {
  const size_t n = 30, m = 7;
  const auto data = RandomStrings(n, m, 3, 15);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  const std::vector<HashValue> q(m, 0);
  std::vector<CircularShiftArray::ShiftBounds> state;
  csa.Search(q.data(), 5, &state);
  EXPECT_EQ(state.size(), m);
  for (const auto& b : state) {
    EXPECT_EQ(b.pos_hi, b.pos_lo + 1);
  }
}

// ---------------------------------------------------------------------------
// Neighbour-LCP drain: CollectFromHeap carries each chain's LCP through the
// neighbour LCPs instead of re-reading rows, and must reproduce the drain
// that re-reads every LCP exactly — same ids, lengths and order.

// Strings with deep collision runs: copies of a few base strings over a
// two-letter alphabet, each with a few symbols flipped, so sorted
// neighbours share long prefixes at every shift (past 255 when m = 300).
std::vector<HashValue> DeepRunStrings(size_t n, size_t m, uint64_t seed) {
  util::Rng rng(seed);
  const size_t num_bases = 4;
  std::vector<HashValue> bases(num_bases * m);
  for (auto& v : bases) v = static_cast<HashValue>(rng.NextBounded(2));
  std::vector<HashValue> data(n * m);
  for (size_t id = 0; id < n; ++id) {
    const HashValue* base = bases.data() + rng.NextBounded(num_bases) * m;
    std::copy(base, base + m, data.begin() + id * m);
    const size_t flips = rng.NextBounded(3);
    for (size_t f = 0; f < flips; ++f) {
      data[id * m + rng.NextBounded(m)] ^= 1;
    }
  }
  return data;
}

// The pop loop as it was before neighbour LCPs: every chain step computes
// the successor's LCP against its probe from the hash row.
void RereadingCollect(const CircularShiftArray& csa,
                      const HashValue* const* probes, size_t num_probes,
                      size_t count, CircularShiftArray::SearchScratch* scratch,
                      std::vector<LccsCandidate>* out) {
  using Csa = CircularShiftArray;
  const auto n = static_cast<int32_t>(csa.n());
  auto& heap = scratch->heap;
  const uint8_t stamp = scratch->stamp;
  const bool dedup_positions = num_probes > 1;
  while (out->size() < count && !heap.empty()) {
    const Csa::HeapKey key = heap.front();
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    const int32_t len = Csa::HeapKeyLen(key);
    const int32_t shift = Csa::HeapKeyShift(key);
    const int32_t pos = Csa::HeapKeyPos(key);
    const int32_t probe = Csa::HeapKeyProbe(key);
    const int32_t dir = Csa::HeapKeyDir(key);
    const auto visited = [&](int32_t p) -> uint8_t& {
      return scratch->visited[static_cast<size_t>(shift) * csa.n() +
                              static_cast<size_t>(p)];
    };
    if (dedup_positions) {
      if (visited(pos) == stamp) continue;
      visited(pos) = stamp;
    }
    const int32_t id = csa.SortedId(shift, pos);
    if (scratch->seen[id] != stamp) {
      scratch->seen[id] = stamp;
      out->push_back({id, len});
    }
    int32_t npos = pos + dir;
    for (;;) {
      while (npos >= 0 && npos < n) {
        if ((dedup_positions && visited(npos) == stamp) ||
            scratch->seen[csa.SortedId(shift, npos)] == stamp) {
          npos += dir;
          continue;
        }
        break;
      }
      if (npos < 0 || npos >= n) break;
      const int32_t nid = csa.SortedId(shift, npos);
      const int32_t nlen = csa.Lcp(nid, probes[probe], shift);
      if (nlen != len || out->size() >= count) {
        heap.push_back(Csa::PackHeapKey(nlen, shift, npos, probe, dir));
        std::push_heap(heap.begin(), heap.end());
        break;
      }
      if (dedup_positions) visited(npos) = stamp;
      scratch->seen[nid] = stamp;
      out->push_back({nid, nlen});
      npos += dir;
    }
  }
}

// Seeds `scratch` the way LCCS-LSH (one probe) and MP-LCCS-LSH (several)
// do: the bound cascade for probe 0, a full search per shift for the rest.
void SeedHeap(const CircularShiftArray& csa,
              const std::vector<const HashValue*>& probes,
              CircularShiftArray::SearchScratch* scratch) {
  const size_t n = csa.n(), m = csa.m();
  scratch->Begin(n, m, probes.size() > 1 ? m * n : 0);
  csa.SearchBounds(probes[0], scratch);
  for (size_t p = 1; p < probes.size(); ++p) {
    for (size_t shift = 0; shift < m; ++shift) {
      const auto b = csa.SearchShift(probes[p], shift, 0,
                                     static_cast<int32_t>(n) - 1);
      csa.PushBounds(b, shift, static_cast<int32_t>(p), scratch);
    }
  }
}

struct DrainCase {
  size_t n;
  size_t m;
  size_t num_probes;
};

class CsaNeighborLcpDrain : public ::testing::TestWithParam<DrainCase> {};

TEST_P(CsaNeighborLcpDrain, MatchesRereadingDrainExactly) {
  const auto param = GetParam();
  const size_t n = param.n, m = param.m;
  const auto data = DeepRunStrings(n, m, 11 + m);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  util::Rng rng(12 + m);
  CircularShiftArray::SearchScratch fast, reference;
  std::vector<HashValue> probe_buf(param.num_probes * m);
  std::vector<const HashValue*> probes(param.num_probes);
  size_t saturated_runs = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // The query is a perturbed base row, so the chains run deep; the extra
    // probes flip a few of its symbols, as multi-probe perturbations do.
    const HashValue* row = data.data() + rng.NextBounded(n) * m;
    for (size_t p = 0; p < param.num_probes; ++p) {
      HashValue* probe = probe_buf.data() + p * m;
      std::copy(row, row + m, probe);
      const size_t flips = p == 0 ? rng.NextBounded(2) : 1 + rng.NextBounded(2);
      for (size_t f = 0; f < flips; ++f) probe[rng.NextBounded(m)] ^= 1;
      probes[p] = probe;
    }
    const size_t count = trial % 3 == 0 ? n : 1 + rng.NextBounded(n);
    std::vector<LccsCandidate> got, expected;
    SeedHeap(csa, probes, &fast);
    SeedHeap(csa, probes, &reference);
    csa.CollectFromHeap(probes.data(), probes.size(), count, &fast, &got);
    RereadingCollect(csa, probes.data(), probes.size(), count, &reference,
                     &expected);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, expected[i].id) << "trial " << trial << " i " << i;
      ASSERT_EQ(got[i].len, expected[i].len)
          << "trial " << trial << " i " << i;
      if (got[i].len > CircularShiftArray::kNeighborLcpCap) ++saturated_runs;
    }
  }
  if (m > static_cast<size_t>(CircularShiftArray::kNeighborLcpCap)) {
    // The data must actually reach the saturated-LCP fallback.
    EXPECT_GT(saturated_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsaNeighborLcpDrain,
    ::testing::Values(DrainCase{60, 1, 1}, DrainCase{60, 1, 3},
                      DrainCase{120, 2, 1}, DrainCase{120, 2, 4},
                      DrainCase{300, 64, 1}, DrainCase{300, 64, 6},
                      DrainCase{200, 300, 1}, DrainCase{200, 300, 5}));

TEST(CsaNeighborLcpTest, EveryEntryIsTheCappedLcpOfSortedNeighbours) {
  for (const size_t m : {size_t{1}, size_t{2}, size_t{7}, size_t{64},
                         size_t{300}}) {
    const size_t n = 150;
    const auto data = DeepRunStrings(n, m, 21 + m);
    CircularShiftArray csa;
    csa.Build(data.data(), n, m);
    for (size_t shift = 0; shift < m; ++shift) {
      for (size_t pos = 0; pos + 1 < n; ++pos) {
        const int32_t lcp =
            CircularLcp(csa.String(csa.SortedId(shift, pos)),
                        csa.String(csa.SortedId(shift, pos + 1)), m, shift);
        ASSERT_EQ(csa.NeighborLcp(shift, pos),
                  std::min(lcp, CircularShiftArray::kNeighborLcpCap))
            << "m " << m << " shift " << shift << " pos " << pos;
      }
      ASSERT_EQ(csa.NeighborLcp(shift, n - 1), 0);
    }
  }
}

TEST(CsaNeighborLcpTest, DeserializeDerivesTheSameArrayAndSearches) {
  const size_t n = 180, m = 300;
  const auto data = DeepRunStrings(n, m, 31);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::ostringstream out(std::ios::binary);
  csa.Serialize(out);
  std::istringstream in(out.str(), std::ios::binary);
  const CircularShiftArray restored = CircularShiftArray::Deserialize(in);
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos < n; ++pos) {
      ASSERT_EQ(restored.NeighborLcp(shift, pos), csa.NeighborLcp(shift, pos))
          << "shift " << shift << " pos " << pos;
    }
  }
  util::Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t row = rng.NextBounded(n);
    std::vector<HashValue> q(data.begin() + row * m,
                             data.begin() + (row + 1) * m);
    q[rng.NextBounded(m)] ^= 1;
    const auto a = csa.Search(q.data(), n);
    const auto b = restored.Search(q.data(), n);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id);
      ASSERT_EQ(a[i].len, b[i].len);
    }
  }
}

// ---------------------------------------------------------------------------
// Corrupt-stream hardening of Deserialize: a flipped header must always
// surface as std::runtime_error — never as std::bad_alloc or an OOM kill —
// because the header-derived allocations are capped by what the stream can
// still back (and n*m overflow is checked before any multiply is trusted).
// Layout: 8-byte magic "LCCSCSA1", uint64 n at byte 8, uint64 m at byte 16.

std::string SerializedCsa(size_t n, size_t m) {
  const auto data = RandomStrings(n, m, 4, 99);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::ostringstream out(std::ios::binary);
  csa.Serialize(out);
  return out.str();
}

void OverwriteU64(std::string* bytes, size_t offset, uint64_t value) {
  ASSERT_GE(bytes->size(), offset + sizeof(value));
  std::memcpy(&(*bytes)[offset], &value, sizeof(value));
}

TEST(CsaDeserializeTest, HugeRowCountThrowsRuntimeError) {
  std::string bytes = SerializedCsa(12, 6);
  // n = 2^32 passes no plausibility test a 100-byte stream could satisfy;
  // before the budget check this drove a ~48 GiB resize.
  OverwriteU64(&bytes, 8, uint64_t{1} << 32);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error);
}

TEST(CsaDeserializeTest, OverflowingProductThrowsRuntimeError) {
  std::string bytes = SerializedCsa(12, 6);
  // n * m wraps uint64: n just under the int32 cap, m = 2^40.
  OverwriteU64(&bytes, 8, uint64_t{0x7FFFFFFF});
  OverwriteU64(&bytes, 16, uint64_t{1} << 40);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error);
}

TEST(CsaDeserializeTest, StringLengthAbovePackedKeyCapThrowsRuntimeError) {
  std::string bytes = SerializedCsa(12, 6);
  // m = 4096 exceeds the 12-bit shift field of the packed heap key; a
  // stream claiming it must be rejected up front, not trip the Build-side
  // assert (or silently fold shifts together in Release).
  OverwriteU64(&bytes, 16, uint64_t{4096});
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error);
}

TEST(CsaDeserializeTest, RangeLegalHeaderBeyondStreamThrowsRuntimeError) {
  std::string bytes = SerializedCsa(12, 6);
  // Both fields individually plausible (fit int32, product doesn't wrap),
  // but the arrays they describe need ~48 GiB the stream cannot back.
  OverwriteU64(&bytes, 8, uint64_t{1} << 31);
  OverwriteU64(&bytes, 16, uint64_t{2048});
  std::istringstream in(bytes, std::ios::binary);
  try {
    CircularShiftArray::Deserialize(in);
    FAIL() << "corrupt header was accepted";
  } catch (const std::runtime_error&) {
  } catch (const std::bad_alloc&) {
    FAIL() << "corrupt header surfaced as bad_alloc";
  }
}

TEST(CsaDeserializeTest, TruncatedArrayThrowsRuntimeError) {
  std::string bytes = SerializedCsa(12, 6);
  // Cut inside the first length-prefixed array (magic + n + m + count = 32
  // bytes, then data_ payload).
  bytes.resize(48);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error);
}

TEST(CsaDeserializeTest, RoundTripStillWorks) {
  const size_t n = 12, m = 6;
  const auto data = RandomStrings(n, m, 4, 99);
  CircularShiftArray csa;
  csa.Build(data.data(), n, m);
  std::string bytes = SerializedCsa(n, m);
  std::istringstream in(bytes, std::ios::binary);
  const CircularShiftArray restored = CircularShiftArray::Deserialize(in);
  ASSERT_EQ(restored.n(), n);
  ASSERT_EQ(restored.m(), m);
  const std::vector<HashValue> q(m, 1);
  const auto a = csa.Search(q.data(), 8);
  const auto b = restored.Search(q.data(), 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].len, b[i].len);
  }
}

// Deserialize derives the neighbour LCPs from the sorted indices, so it
// rejects indices that are not permutations or not in shift order.
// Layout: 24-byte header, data_ (8-byte count + n*m int32), then sorted_
// (8-byte count + m*n int32, shift-major).
size_t SortedEntryOffset(size_t n, size_t m, size_t shift, size_t pos) {
  return 24 + 8 + n * m * sizeof(HashValue) + 8 +
         (shift * n + pos) * sizeof(int32_t);
}

TEST(CsaDeserializeTest, SortedIndexOutOfShiftOrderThrowsRuntimeError) {
  const size_t n = 12, m = 6;
  for (const size_t shift : {size_t{0}, size_t{1}, m - 1}) {
    std::string bytes = SerializedCsa(n, m);
    const size_t a = SortedEntryOffset(n, m, shift, 0);
    const size_t b = SortedEntryOffset(n, m, shift, n - 1);
    for (size_t i = 0; i < sizeof(int32_t); ++i) {
      std::swap(bytes[a + i], bytes[b + i]);
    }
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error)
        << "shift " << shift;
  }
}

TEST(CsaDeserializeTest, SortedIndexWithRepeatedIdThrowsRuntimeError) {
  const size_t n = 12, m = 6;
  std::string bytes = SerializedCsa(n, m);
  std::memcpy(&bytes[SortedEntryOffset(n, m, 0, 1)],
              &bytes[SortedEntryOffset(n, m, 0, 0)], sizeof(int32_t));
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(CircularShiftArray::Deserialize(in), std::runtime_error);
}

// Degenerate: all strings identical and equal to the query.
TEST(CsaSearchTest, AllIdenticalStrings) {
  std::vector<HashValue> data;
  for (int i = 0; i < 10; ++i) data.insert(data.end(), {4, 4, 4, 4});
  CircularShiftArray csa;
  csa.Build(data.data(), 10, 4);
  const std::vector<HashValue> q = {4, 4, 4, 4};
  const auto result = csa.Search(q.data(), 3);
  ASSERT_EQ(result.size(), 3u);
  for (const auto& c : result) {
    EXPECT_EQ(c.len, 4);
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
