#include "core/csa.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "core/stream_io.h"

namespace lccs {
namespace core {

namespace {

// Sort key of a string at shift i >= 1: its symbol t_i (sign-flipped so
// unsigned order is HashValue order) above its rank at shift i + 1. Ranks
// are unique, so sorting the keys orders I_i exactly as Build's pair
// comparison does, and the low half names the string through I_{i+1}.
uint64_t ShiftOrderKey(HashValue symbol, size_t succ_rank) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(symbol) ^ 0x80000000u)
          << 32) |
         succ_rank;
}

int32_t KeyRank(uint64_t key) { return static_cast<int32_t>(key); }

bool SameSymbol(uint64_t a, uint64_t b) { return (a >> 32) == (b >> 32); }

}  // namespace

void CircularShiftArray::Build(const HashValue* strings, size_t n, size_t m) {
  assert(n >= 1 && m >= 1);
  // HeapKey field widths (see PackHeapKey): shift/len take 12 bits, pos 31.
  assert(m <= 0xFFF && n <= 0x7FFFFFFF);
  n_ = n;
  m_ = m;
  data_.assign(strings, strings + n * m);
  sorted_.assign(m * n, 0);
  next_.assign(m * n, 0);
  adj_.assign(m * n, 0);
  if (next_released_) {
    // Rebuilding restores the links a prior ReleaseNextLinks dropped.
    next_released_ = false;
    use_narrowing_ = true;
  }

  // Shift 0 is sorted directly with the circular comparator (ties by id so
  // builds are deterministic).
  int32_t* order0 = sorted_.data();
  std::iota(order0, order0 + n, 0);
  std::sort(order0, order0 + n, [this](int32_t a, int32_t b) {
    int32_t lcp = 0;
    const int cmp = CompareShifted(String(a), String(b), m_, 0, &lcp);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });
  const bool ordered = FillShiftZeroNeighborLcp();
  assert(ordered);
  (void)ordered;

  // Derive the remaining shift orders from their successors, in decreasing
  // shift order: shift(T, i) = [t_i] ++ (shift(T, i+1) minus its last
  // element), so sorting by the pair (t_i, rank at shift i+1) reproduces the
  // shift-i lexicographic order (see class comment). Column i is copied out
  // of the rows once, and the pairs are sorted as packed keys.
  std::vector<HashValue> column(n);
  std::vector<uint64_t> keys(n);
  std::vector<int32_t> pending;
  for (size_t i = m; i-- > 1;) {
    const int32_t* succ = sorted_.data() + ((i + 1) % m) * n;
    for (size_t id = 0; id < n; ++id) column[id] = data_[id * m + i];
    for (size_t r = 0; r < n; ++r) keys[r] = ShiftOrderKey(column[succ[r]], r);
    std::sort(keys.begin(), keys.end());
    // A key's rank is the next link N_i[pos] = position in I_{i+1} of the
    // string at position pos of I_i (Algorithm 1, lines 3-7).
    int32_t* order = sorted_.data() + i * n;
    int32_t* link = next_.data() + i * n;
    for (size_t pos = 0; pos < n; ++pos) {
      link[pos] = KeyRank(keys[pos]);
      order[pos] = succ[link[pos]];
    }
    FillNeighborLcp(i, keys.data(), &pending);
  }

  // N_0 needs I_1's ranks, known only now (for m = 1, I_1 is I_0).
  std::vector<int32_t> rank(n);
  const int32_t* order1 = sorted_.data() + (1 % m) * n;
  for (size_t pos = 0; pos < n; ++pos) {
    rank[order1[pos]] = static_cast<int32_t>(pos);
  }
  for (size_t pos = 0; pos < n; ++pos) next_[pos] = rank[order0[pos]];
}

bool CircularShiftArray::FillShiftZeroNeighborLcp() {
  const int32_t* order = sorted_.data();
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    int32_t lcp = 0;
    if (CompareShifted(String(order[pos]), String(order[pos + 1]), m_, 0,
                       &lcp) > 0) {
      return false;
    }
    adj_[pos] = static_cast<uint8_t>(std::min(lcp, kNeighborLcpCap));
  }
  return true;
}

void CircularShiftArray::FillNeighborLcp(size_t shift, const uint64_t* keys,
                                         std::vector<int32_t>* pending) {
  const uint8_t* succ_adj = adj_.data() + ((shift + 1) % m_) * n_;
  uint8_t* adj = adj_.data() + shift * n_;
  // Neighbours with different t_shift share nothing (adj stays 0). For
  // neighbours at pos and pos + 1 with equal t_shift, pending[r] = pos where
  // r is the rank of the pos + 1 string at shift + 1; the pos string ranks
  // lower there, at l = KeyRank(keys[pos]).
  pending->assign(n_, -1);
  for (size_t pos = 1; pos < n_; ++pos) {
    if (SameSymbol(keys[pos - 1], keys[pos])) {
      (*pending)[KeyRank(keys[pos])] = static_cast<int32_t>(pos - 1);
    }
  }
  // Sweep shift + 1 in rank order keeping the ranks whose succ_adj values
  // strictly increase (the suffix minima of succ_adj[0, r)): the minimum of
  // succ_adj[l, r) is the value at the first kept rank >= l. The kept values
  // are distinct bytes, so the stack never exceeds 256 entries.
  std::vector<int32_t> stack;
  stack.reserve(256);
  for (size_t r = 1; r < n_; ++r) {
    const uint8_t v = succ_adj[r - 1];
    while (!stack.empty() && succ_adj[stack.back()] >= v) stack.pop_back();
    stack.push_back(static_cast<int32_t>(r - 1));
    const int32_t pos = (*pending)[r];
    if (pos < 0) continue;
    const int32_t l = KeyRank(keys[pos]);
    const int32_t min_rank = *std::lower_bound(stack.begin(), stack.end(), l);
    const int32_t lcp =
        1 + std::min<int32_t>(static_cast<int32_t>(m_) - 1, succ_adj[min_rank]);
    adj[pos] = static_cast<uint8_t>(std::min(lcp, kNeighborLcpCap));
  }
}

CircularShiftArray::ShiftBounds CircularShiftArray::SearchShift(
    const HashValue* query, size_t shift, int32_t lo, int32_t hi) const {
  assert(lo >= 0 && hi < static_cast<int32_t>(n_) && lo <= hi);
  // Find the first position in [lo, hi] whose string compares greater than
  // shift(Q, shift); everything before it is <= Q. Manber–Myers LCP bounds:
  // whenever both ends of the open interval (left-1, right) have had their
  // LCP against the query measured, every string strictly between them
  // shares at least min(llcp, rlcp) leading symbols with the query (sorted
  // strings between two strings with a common prefix also carry it), so
  // each probe resumes comparing at that offset instead of at symbol 0 —
  // with the deep collision runs a small bucket width w produces, that is
  // the difference between O(log n) and O(m log n) symbol reads per shift.
  int32_t left = lo;
  int32_t right = hi + 1;
  int32_t llcp = 0, rlcp = 0;     // LCP(query, ...) at left-1 / right
  bool lvalid = false, rvalid = false;  // initial bounds were never probed
  while (left < right) {
    const int32_t mid = left + (right - left) / 2;
    const int32_t skip =
        std::min(lvalid ? llcp : 0, rvalid ? rlcp : 0);
    int32_t lcp = 0;
    const int cmp =
        CompareShifted(String(SortedId(shift, mid)), query, m_, shift, &lcp,
                       skip);
    if (cmp > 0) {
      right = mid;
      rlcp = lcp;
      rvalid = true;
    } else {
      left = mid + 1;
      llcp = lcp;
      lvalid = true;
    }
  }
  ShiftBounds b;
  b.pos_lo = left - 1;
  b.pos_hi = left;
  if (b.pos_lo >= 0) {
    b.len_lo = lvalid ? llcp : Lcp(SortedId(shift, b.pos_lo), query, shift);
  }
  if (b.pos_hi < static_cast<int32_t>(n_)) {
    b.len_hi = rvalid ? rlcp : Lcp(SortedId(shift, b.pos_hi), query, shift);
  }
  return b;
}

CircularShiftArray::ShiftBounds CircularShiftArray::SearchShiftFrom(
    const HashValue* query, size_t shift, const ShiftBounds& prev) const {
  const auto n = static_cast<int32_t>(n_);
  if (use_narrowing_ && prev.pos_lo >= 0 && prev.pos_hi < n &&
      prev.len_lo >= 1 && prev.len_hi >= 1) {
    const int32_t lo = NextPosition(shift - 1, prev.pos_lo);
    const int32_t hi = NextPosition(shift - 1, prev.pos_hi);
    if (lo <= hi) return SearchShift(query, shift, lo, hi);
  }
  return SearchShift(query, shift, 0, n - 1);
}

void CircularShiftArray::SearchScratch::Begin(size_t n, size_t m,
                                              size_t positions) {
  if (seen.size() < n) seen.assign(n, 0);
  if (positions > 0 && visited.size() < m * n) visited.assign(m * n, 0);
  heap.clear();
  if (++stamp == 0) {
    // Stamp wraparound (every 255 queries on one scratch with uint8
    // stamps): stale stamps could alias, so pay one full reset and restart
    // at 1 — n + m*n bytes every 255 queries is noise next to the lookups
    // the byte-dense arrays save on every query.
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(visited.begin(), visited.end(), 0);
    stamp = 1;
  }
}

void CircularShiftArray::PushBounds(const ShiftBounds& b, size_t shift,
                                    int32_t probe,
                                    SearchScratch* scratch) const {
  const auto n = static_cast<int32_t>(n_);
  assert(probe >= 0 && probe <= 0xFF);
  auto& heap = scratch->heap;
  if (b.pos_lo >= 0) {
    heap.push_back(PackHeapKey(b.len_lo, static_cast<int32_t>(shift),
                               b.pos_lo, probe, -1));
    std::push_heap(heap.begin(), heap.end());
  }
  if (b.pos_hi < n) {
    heap.push_back(PackHeapKey(b.len_hi, static_cast<int32_t>(shift),
                               b.pos_hi, probe, +1));
    std::push_heap(heap.begin(), heap.end());
  }
}

void CircularShiftArray::SearchBounds(const HashValue* query,
                                      SearchScratch* scratch) const {
  assert(!empty());
  const auto n = static_cast<int32_t>(n_);
  scratch->state.assign(m_, ShiftBounds{});
  // Line 2 of Algorithm 2: one full binary search on I_0, then lines 5-11:
  // narrowed binary searches driven by the next links (Corollary 3.2),
  // falling back to a full search when the previous shift matched less than
  // one symbol.
  scratch->state[0] = SearchShift(query, 0, 0, n - 1);
  PushBounds(scratch->state[0], 0, 0, scratch);
  for (size_t i = 1; i < m_; ++i) {
    scratch->state[i] = SearchShiftFrom(query, i, scratch->state[i - 1]);
    PushBounds(scratch->state[i], i, 0, scratch);
  }
}

void CircularShiftArray::CollectFromHeap(const HashValue* const* probes,
                                         size_t num_probes, size_t count,
                                         SearchScratch* scratch,
                                         std::vector<LccsCandidate>* out) const {
  // Lines 12-15: pop the frontier in non-increasing LCP order; per shift and
  // direction the LCP is monotone non-increasing away from the query
  // position (Fact 3.2), so the first pop of an id yields |LCCS(T_id, Q)|.
  // HeapEntry's comparator is a total order, so the pop sequence depends
  // only on the set of entries, never on push order or heap layout.
  const auto n = static_cast<int32_t>(n_);
  auto& heap = scratch->heap;
  uint8_t* seen = scratch->seen.data();
  const uint8_t stamp = scratch->stamp;
  // Frontier-position dedup matters only when several probes overlap in the
  // sorted orders (Example 4.1): with one probe the lo-chain only ever moves
  // down from pos_lo and the hi-chain up from pos_hi = pos_lo + 1, so no
  // position can be reached twice and the check would never fire.
  const bool dedup_positions = num_probes > 1;
  while (out->size() < count && !heap.empty()) {
    const HeapKey key = heap.front();
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    const int32_t len = HeapKeyLen(key);
    const int32_t shift = HeapKeyShift(key);
    const int32_t pos = HeapKeyPos(key);
    const int32_t probe = HeapKeyProbe(key);
    const int32_t dir = HeapKeyDir(key);
    const size_t base = static_cast<size_t>(shift) * n_;
    const int32_t* ids = sorted_.data() + base;
    const uint8_t* adj = adj_.data() + base;
    uint8_t* visited =
        dedup_positions ? scratch->visited.data() + base : nullptr;
    if (visited != nullptr) {
      if (visited[pos] == stamp) continue;  // another probe consumed it
      visited[pos] = stamp;
    }
    if (seen[ids[pos]] != stamp) {
      seen[ids[pos]] = stamp;
      out->push_back({ids[pos], len});
    }
    // Advance the chain. Its LCP is carried, not re-read: every position
    // lies on the far side of pos from the probe's own bound, so
    // LCP(probe, I[npos]) = min(LCP(probe, I[pos]), the neighbour LCPs
    // between pos and npos) — a running minimum over each step, skipped
    // positions included. Only a minimum at the cap (m above it) may hide
    // a longer LCP, and there the probe is compared directly.
    //
    // Two shortcuts, both order-preserving:
    //
    // Fast-forward: skip positions that can no longer contribute — ids
    // already emitted (and, multi-probe, frontier positions another probe
    // already consumed). Each skipped step costs one stamped-array lookup
    // instead of a full heap cycle — with m chains surfacing overlapping id
    // sets, duplicate pops otherwise dominate the search (super-linearly in
    // the candidate budget as the unique ids thin out). Marks only
    // accumulate within a query, so a mark observed here would also be
    // observed at the (later) pop of the same entry.
    //
    // Run extension: while the successor's LCP *equals* the popped length,
    // emit it in place instead of cycling it through the heap. The pop
    // order is a total order on (len desc, shift asc, pos asc, probe, dir),
    // so among equal lengths the smallest shift drains first, and within a
    // shift each chain re-enters as the front as long as its length holds
    // (the lo chain's positions only decrease, the hi chain stays above
    // it) — no pending or future entry can interpose inside an equal-LCP
    // run of one chain, and the emitted sequence is exactly the heap's.
    int32_t npos = pos;
    int32_t nlen = len;
    for (;;) {
      for (;;) {
        const int32_t next = npos + dir;
        if (next < 0 || next >= n) {
          npos = next;
          break;
        }
        nlen = std::min<int32_t>(nlen, adj[dir > 0 ? npos : next]);
        npos = next;
        if (visited != nullptr && visited[npos] == stamp) continue;
        if (seen[ids[npos]] != stamp) break;
      }
      if (npos < 0 || npos >= n) break;  // chain exhausted
      const int32_t nid = ids[npos];
      if (nlen == kNeighborLcpCap &&
          m_ > static_cast<size_t>(kNeighborLcpCap)) {
        nlen = Lcp(nid, probes[probe], static_cast<size_t>(shift));
      }
      if (nlen != len || out->size() >= count) {
        heap.push_back(PackHeapKey(nlen, shift, npos, probe, dir));
        std::push_heap(heap.begin(), heap.end());
        break;
      }
      if (visited != nullptr) visited[npos] = stamp;
      seen[nid] = stamp;
      out->push_back({nid, nlen});
    }
  }
}

std::vector<LccsCandidate> CircularShiftArray::Search(const HashValue* query,
                                                      size_t k) const {
  std::vector<ShiftBounds> state;
  return Search(query, k, &state);
}

std::vector<LccsCandidate> CircularShiftArray::Search(
    const HashValue* query, size_t k, std::vector<ShiftBounds>* state) const {
  assert(!empty());
  SearchScratch scratch;
  scratch.Begin(n_, m_, 0);
  SearchBounds(query, &scratch);
  std::vector<LccsCandidate> result;
  result.reserve(std::min<size_t>(k, n_));
  const HashValue* probes[1] = {query};
  CollectFromHeap(probes, 1, k, &scratch, &result);
  *state = std::move(scratch.state);
  return result;
}

namespace {

constexpr char kMagic[8] = {'L', 'C', 'C', 'S', 'C', 'S', 'A', '1'};

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in) throw std::runtime_error("truncated CSA stream");
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

template <typename T>
void ReadVector(std::istream& in, std::vector<T>* v, uint64_t expected) {
  uint64_t size = 0;
  ReadPod(in, &size);
  if (size != expected) {
    throw std::runtime_error("CSA stream: unexpected array size");
  }
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()), size * sizeof(T));
  if (!in) throw std::runtime_error("truncated CSA stream");
}

}  // namespace

void CircularShiftArray::ReleaseNextLinks() {
  std::vector<int32_t>().swap(next_);
  use_narrowing_ = false;
  next_released_ = true;
}

void CircularShiftArray::Serialize(std::ostream& out) const {
  if (next_released_) {
    // Programming error, not data corruption: the caller chose the
    // memory-tight mode and must persist before releasing.
    throw std::logic_error(
        "CSA: cannot serialize after ReleaseNextLinks (next links gone)");
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, static_cast<uint64_t>(n_));
  WritePod(out, static_cast<uint64_t>(m_));
  WriteVector(out, data_);
  WriteVector(out, sorted_);
  WriteVector(out, next_);
}

CircularShiftArray CircularShiftArray::Deserialize(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    throw std::runtime_error("not a CSA stream (bad magic)");
  }
  uint64_t n = 0, m = 0;
  ReadPod(in, &n);
  ReadPod(in, &m);
  if (n == 0 || m == 0) throw std::runtime_error("CSA stream: empty index");
  // Header plausibility before any allocation: ids are int32, the n*m
  // element counts below must not wrap uint64, and the three arrays
  // (8-byte count prefix each) must fit inside what the stream can still
  // back — a range-legal corrupt header (e.g. n = 2^32, m = 2^25) must
  // surface as the promised runtime_error, never as bad_alloc/OOM.
  if (n > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    throw std::runtime_error("CSA stream: corrupt header (n exceeds int32)");
  }
  // Build caps m at the HeapKey shift-field width; no well-formed stream
  // can carry more, so reject rather than mis-pack search heap keys later.
  if (m > 0xFFF) {
    throw std::runtime_error("CSA stream: corrupt header (m exceeds 4095)");
  }
  if (m > std::numeric_limits<uint64_t>::max() / n) {
    throw std::runtime_error("CSA stream: corrupt header (n*m overflows)");
  }
  const uint64_t count = n * m;
  const uint64_t budget = io::RemainingBytes(in);
  const uint64_t need_bytes =
      count * sizeof(HashValue) + 2 * count * sizeof(int32_t);
  if (count > std::numeric_limits<uint64_t>::max() /
                  (sizeof(HashValue) + 2 * sizeof(int32_t)) ||
      need_bytes > budget) {
    throw std::runtime_error("CSA stream: arrays larger than stream");
  }
  CircularShiftArray csa;
  csa.n_ = n;
  csa.m_ = m;
  try {
    ReadVector(in, &csa.data_, count);
    ReadVector(in, &csa.sorted_, count);
    ReadVector(in, &csa.next_, count);
  } catch (const std::bad_alloc&) {
    throw std::runtime_error("CSA stream: allocation failed (corrupt sizes)");
  }
  for (const int32_t pos : csa.next_) {
    if (pos < 0 || pos >= static_cast<int32_t>(n)) {
      throw std::runtime_error("CSA stream: corrupt next link");
    }
  }
  // Each I_i must be a permutation (stamp = shift + 1 marks its ids).
  std::vector<uint32_t> mark(n, 0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t pos = 0; pos < n; ++pos) {
      const int32_t id = csa.sorted_[i * n + pos];
      if (id < 0 || id >= static_cast<int32_t>(n) || mark[id] == i + 1) {
        throw std::runtime_error("CSA stream: corrupt sorted index");
      }
      mark[id] = static_cast<uint32_t>(i + 1);
    }
  }
  // Derive the neighbour LCPs as Build does; the derivation needs every
  // shift in order, which a corrupt stream may not be.
  csa.adj_.assign(count, 0);
  if (!csa.FillShiftZeroNeighborLcp()) {
    throw std::runtime_error("CSA stream: sorted index out of order");
  }
  std::vector<int32_t> rank(n);
  std::vector<uint64_t> keys(n);
  std::vector<int32_t> pending;
  for (size_t i = m; i-- > 1;) {
    const int32_t* succ = csa.sorted_.data() + ((i + 1) % m) * n;
    for (size_t r = 0; r < n; ++r) rank[succ[r]] = static_cast<int32_t>(r);
    const int32_t* order = csa.sorted_.data() + i * n;
    for (size_t pos = 0; pos < n; ++pos) {
      const int32_t id = order[pos];
      keys[pos] = ShiftOrderKey(csa.data_[static_cast<size_t>(id) * m + i],
                                static_cast<size_t>(rank[id]));
      if (pos > 0 && keys[pos - 1] >= keys[pos]) {
        throw std::runtime_error("CSA stream: sorted index out of order");
      }
    }
    csa.FillNeighborLcp(i, keys.data(), &pending);
  }
  return csa;
}

}  // namespace core
}  // namespace lccs
