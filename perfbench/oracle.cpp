#include "oracle.h"

#include <algorithm>
#include <queue>

#include "core/join_project.h"

namespace perfbench {

using jpmm::CountedPair;
using jpmm::OutPair;
using jpmm::Value;

namespace {

// splitmix64 finalizer: a bijective 64-bit mix.
uint64_t Mix(uint64_t v) {
  v += 0x9e3779b97f4a7c15ull;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

// Strict "ranks before" of the top-k order.
bool RanksBefore(const CountedPair& a, const CountedPair& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.x != b.x) return a.x < b.x;
  return a.z < b.z;
}

}  // namespace

uint64_t PairHash(Value x, Value z) { return Mix(jpmm::PackPair(x, z)); }

uint64_t CountedHash(const CountedPair& p) {
  return Mix(PairHash(p.x, p.z) ^ p.count);
}

uint64_t TupleHash(std::span<const Value> tuple) {
  uint64_t h = tuple.size();
  for (Value v : tuple) h = Mix(h ^ v);
  return h;
}

struct alignas(64) DigestSink::DigestShard : ResultSink::Shard {
  Digest d;
  void OnPair(const OutPair& p) override { d.Add(PairHash(p.x, p.z)); }
  void OnCountedPair(const CountedPair& p) override { d.Add(CountedHash(p)); }
  void OnTuple(std::span<const Value> t) override { d.Add(TupleHash(t)); }
  void OnPairs(std::span<const OutPair> ps) override {
    for (const OutPair& p : ps) d.Add(PairHash(p.x, p.z));
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    for (const CountedPair& p : ps) d.Add(CountedHash(p));
  }
};

DigestSink::DigestSink() = default;
DigestSink::~DigestSink() = default;

void DigestSink::Open(int num_shards) {
  shards_.clear();
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<DigestShard>());
  }
}

jpmm::ResultSink::Shard& DigestSink::shard(int w) { return *shards_[w]; }

Digest DigestSink::digest() const {
  Digest total;
  for (const auto& s : shards_) {
    total.count += s->d.count;
    total.sum += s->d.sum;
  }
  return total;
}

namespace {

// Collects both digests and the top-k of a counted two-path stream. The
// oracle runs at one thread, so one shard sees everything.
class TwoPathOracleSink : public jpmm::ResultSink {
 public:
  explicit TwoPathOracleSink(size_t k) : shard_(k) {}
  void Open(int num_shards) override { (void)num_shards; }
  Shard& shard(int w) override {
    (void)w;
    return shard_;
  }
  TwoPathOracle Take() {
    TwoPathOracle out;
    out.plain = shard_.plain;
    out.counted = shard_.counted;
    while (!shard_.heap.empty()) {
      out.top.push_back(shard_.heap.top());
      shard_.heap.pop();
    }
    std::sort(out.top.begin(), out.top.end(), RanksBefore);
    return out;
  }

 private:
  struct OracleShard : Shard {
    explicit OracleShard(size_t k) : k(k), heap(RanksBefore) {}
    void OnPair(const OutPair& p) override { (void)p; }
    void OnCountedPair(const CountedPair& p) override {
      plain.Add(PairHash(p.x, p.z));
      counted.Add(CountedHash(p));
      // heap.top() is the worst kept pair.
      if (heap.size() < k) {
        heap.push(p);
      } else if (k > 0 && RanksBefore(p, heap.top())) {
        heap.pop();
        heap.push(p);
      }
    }
    const size_t k;
    Digest plain;
    Digest counted;
    std::priority_queue<CountedPair, std::vector<CountedPair>,
                        decltype(&RanksBefore)>
        heap;
  };
  OracleShard shard_;
};

}  // namespace

TwoPathOracle ComputeTwoPathOracle(const jpmm::IndexedRelation& rel,
                                   size_t top_k) {
  TwoPathOracleSink sink(top_k);
  jpmm::WcojFullJoinProject(rel, rel, /*count_witnesses=*/true,
                            /*min_count=*/1, /*threads=*/1, &sink);
  return sink.Take();
}

Digest ComputeStarOracle(const jpmm::IndexedRelation& rel) {
  // Worst-case-optimal enumeration with x1 outermost: every (x2, x3) that
  // shares a y with x1 sets one bit, so the dedup state is one x-by-x bitmap
  // instead of the materialized full join.
  const size_t n = rel.num_x();
  std::vector<bool> seen(n * n);
  Digest d;
  for (Value x1 = 0; x1 < n; ++x1) {
    std::fill(seen.begin(), seen.end(), false);
    for (Value y : rel.YsOf(x1)) {
      const auto xs = rel.XsOf(y);
      for (Value x2 : xs) {
        for (Value x3 : xs) seen[x2 * n + x3] = true;
      }
    }
    for (size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) continue;
      const Value t[3] = {x1, static_cast<Value>(i / n),
                          static_cast<Value>(i % n)};
      d.Add(TupleHash(t));
    }
  }
  return d;
}

uint32_t Witnesses(const jpmm::IndexedRelation& rel, Value x, Value z) {
  const auto a = rel.YsOf(x);
  const auto b = rel.YsOf(z);
  uint32_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace perfbench
