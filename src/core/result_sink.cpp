#include "core/result_sink.h"

#include <algorithm>
#include <utility>

namespace jpmm {

void ResultSink::Shard::OnPairs(std::span<const OutPair> ps) {
  for (const OutPair& p : ps) OnPair(p);
}

void ResultSink::Shard::OnCountedPairs(std::span<const CountedPair> ps) {
  for (const CountedPair& p : ps) OnCountedPair(p);
}

// ---- Results and MaterializingSink ----------------------------------------

void Results::Append(std::span<Results* const> parts) {
  size_t np = pairs.size(), nc = counted.size(), nt = tuple_data.size();
  for (const Results* r : parts) {
    np += r->pairs.size();
    nc += r->counted.size();
    nt += r->tuple_data.size();
    if (r->tuple_arity != 0) tuple_arity = r->tuple_arity;
  }
  pairs.reserve(np);
  counted.reserve(nc);
  tuple_data.reserve(nt);
  for (const Results* r : parts) {
    pairs.insert(pairs.end(), r->pairs.begin(), r->pairs.end());
    counted.insert(counted.end(), r->counted.begin(), r->counted.end());
    tuple_data.insert(tuple_data.end(), r->tuple_data.begin(),
                      r->tuple_data.end());
  }
}

// Keeps the part of each delivery that `admit` grants. For VectorSink the
// grant is the whole delivery, which the compiler folds away.
template <typename Admit>
struct MaterializingSink::AdmitShard final : CollectShard {
  explicit AdmitShard(Admit a) : admit(a) {}
  Admit admit;

  bool KeepOne(uint64_t bytes) {
    const auto [first, last] = admit(1, bytes);
    return first < last;
  }
  template <typename T>
  void Keep(std::span<const T> ps, std::vector<T>* dst) {
    const auto [first, last] = admit(ps.size(), ps.size_bytes());
    dst->insert(dst->end(), ps.begin() + first, ps.begin() + last);
  }
  void OnPair(const OutPair& p) override {
    if (KeepOne(sizeof(OutPair))) out.pairs.push_back(p);
  }
  void OnCountedPair(const CountedPair& p) override {
    if (KeepOne(sizeof(CountedPair))) out.counted.push_back(p);
  }
  void OnTuple(std::span<const Value> tuple) override {
    if (KeepOne(tuple.size_bytes())) out.AddTuple(tuple);
  }
  void OnPairs(std::span<const OutPair> ps) override { Keep(ps, &out.pairs); }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    Keep(ps, &out.counted);
  }
};

template <typename Admit>
void MaterializingSink::OpenShards(int num_shards, Admit admit) {
  shards_.clear();
  results_ = Results{};
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<AdmitShard<Admit>>(admit));
  }
}

ResultSink::Shard& MaterializingSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void MaterializingSink::Finish() {
  std::vector<Results*> parts;
  for (auto& s : shards_) parts.push_back(&s->out);
  results_.Append(parts);
  shards_.clear();
}

namespace {

// The [first, last) part of a delivery that a sink keeps.
using Grant = std::pair<size_t, size_t>;

}  // namespace

// ---- VectorSink ----------------------------------------------------------

void VectorSink::Open(int num_shards) {
  OpenShards(num_shards, [](size_t n, uint64_t) { return Grant{0, n}; });
}

// ---- CountOnlySink -------------------------------------------------------

CountOnlySink::CountOnlySink() = default;
CountOnlySink::~CountOnlySink() = default;

struct CountOnlySink::CountShard : ResultSink::Shard {
  explicit CountShard(std::atomic<uint64_t>* total) : total_(total) {}
  void OnPair(const OutPair&) override {
    total_->fetch_add(1, std::memory_order_relaxed);
  }
  void OnCountedPair(const CountedPair&) override {
    total_->fetch_add(1, std::memory_order_relaxed);
  }
  void OnTuple(std::span<const Value>) override {
    total_->fetch_add(1, std::memory_order_relaxed);
  }
  void OnPairs(std::span<const OutPair> ps) override {
    total_->fetch_add(ps.size(), std::memory_order_relaxed);
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    total_->fetch_add(ps.size(), std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>* total_;
};

void CountOnlySink::Open(int num_shards) {
  shards_.clear();
  count_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<CountShard>(&count_));
  }
}

ResultSink::Shard& CountOnlySink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

// ---- PageSink ------------------------------------------------------------

namespace {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a > ~uint64_t{0} - b ? ~uint64_t{0} : a + b;
}

}  // namespace

PageSink::PageSink(uint64_t offset, uint64_t limit)
    : offset_(offset), end_(SaturatingAdd(offset, limit)) {}

void PageSink::Open(int num_shards) {
  accepted_.store(0, std::memory_order_relaxed);
  // One fetch_add per delivery reserves result slots [idx, idx + n); the
  // part of them inside [offset, end) lands in the page, so the skip count
  // and page boundary are exact across shards.
  OpenShards(num_shards, [this](size_t n, uint64_t) {
    const uint64_t idx = accepted_.fetch_add(n, std::memory_order_relaxed);
    auto clamp = [&](uint64_t bound) -> size_t {
      return bound <= idx ? 0 : std::min<uint64_t>(bound - idx, n);
    };
    return Grant{clamp(offset_), clamp(end_)};
  });
}

// ---- OrderedBySink -------------------------------------------------------

namespace {

// Count descending, ties (x, z) ascending — a strict total order, so the
// top-k set is unique and the result deterministic at every thread count.
bool RanksAbove(const CountedPair& a, const CountedPair& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.x != b.x) return a.x < b.x;
  return a.z < b.z;
}

// "a ranks above b" under the chosen order. Both orders are strict total
// orders over distinct (x, z) pairs, so ranked output is deterministic.
bool OrderedRanksAbove(ResultOrder order, const CountedPair& a,
                       const CountedPair& b) {
  if (order == ResultOrder::kCountDescending) return RanksAbove(a, b);
  if (a.x != b.x) return a.x < b.x;
  return a.z < b.z;
}

}  // namespace

const char* ResultOrderName(ResultOrder o) {
  switch (o) {
    case ResultOrder::kXzAscending:
      return "xz-ascending";
    case ResultOrder::kCountDescending:
      return "count-descending";
  }
  return "?";
}

OrderedBySink::OrderedBySink(ResultOrder order, uint64_t limit)
    : order_(order), limit_(limit) {}
OrderedBySink::~OrderedBySink() = default;

struct OrderedBySink::OrderedShard : ResultSink::Shard {
  OrderedShard(ResultOrder order, uint64_t limit)
      : order_(order), limit_(limit) {}

  // Unbounded: a plain run, sorted once at Finish(). Bounded: a min-heap
  // on the ranking (run[0] = weakest kept), so the shard never holds more
  // than `limit` results.
  std::vector<CountedPair> run;

  // Spans rank without a virtual call per result: a cached replay or a
  // fan-out flush hands over thousands of results at once.
  void OnPair(const OutPair& p) override { Add(CountedPair{p.x, p.z, 1}); }
  void OnCountedPair(const CountedPair& p) override { Add(p); }
  void OnPairs(std::span<const OutPair> ps) override {
    for (const OutPair& p : ps) Add(CountedPair{p.x, p.z, 1});
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    for (const CountedPair& p : ps) Add(p);
  }

  void Add(const CountedPair& p) {
    if (limit_ == kNoLimit) {
      run.push_back(p);
      return;
    }
    auto weaker = [this](const CountedPair& a, const CountedPair& b) {
      return OrderedRanksAbove(order_, a, b);
    };
    if (run.size() < limit_) {
      run.push_back(p);
      std::push_heap(run.begin(), run.end(), weaker);
    } else if (!run.empty() && OrderedRanksAbove(order_, p, run.front())) {
      std::pop_heap(run.begin(), run.end(), weaker);
      run.back() = p;
      std::push_heap(run.begin(), run.end(), weaker);
    }
  }

 private:
  const ResultOrder order_;
  const uint64_t limit_;
};

void OrderedBySink::Open(int num_shards) {
  shards_.clear();
  ranked_.clear();
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<OrderedShard>(order_, limit_));
  }
}

ResultSink::Shard& OrderedBySink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void OrderedBySink::Finish() {
  auto above = [this](const CountedPair& a, const CountedPair& b) {
    return OrderedRanksAbove(order_, a, b);
  };
  // Sort each shard run, then merge with one cursor per shard: the buffer
  // beyond the sorted runs themselves is O(shards), and delivery streams
  // in rank order as the merge advances.
  size_t total = 0;
  for (auto& s : shards_) {
    std::sort(s->run.begin(), s->run.end(), above);
    total += s->run.size();
  }
  std::vector<size_t> cursor(shards_.size(), 0);
  const uint64_t want = std::min<uint64_t>(total, limit_);
  ranked_.reserve(static_cast<size_t>(want));
  while (ranked_.size() < want) {
    size_t best = shards_.size();
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (cursor[i] >= shards_[i]->run.size()) continue;
      if (best == shards_.size() ||
          above(shards_[i]->run[cursor[i]], shards_[best]->run[cursor[best]])) {
        best = i;
      }
    }
    if (best == shards_.size()) break;
    const CountedPair& next = shards_[best]->run[cursor[best]++];
    ranked_.push_back(next);
    if (on_result_) on_result_(next);
  }
  shards_.clear();
}

// ---- FanoutSink ----------------------------------------------------------

FanoutSink::FanoutSink() = default;
FanoutSink::~FanoutSink() = default;

struct FanoutSink::FanShard : ResultSink::Shard {
  // (owning sink, its shard): the sink pointer is polled for done() before
  // every forward so a satisfied target (limit/page reached) stops paying
  // for delivery while the shared pass keeps running for the others.
  std::vector<std::pair<ResultSink*, ResultSink::Shard*>> targets;
  std::vector<ResultSink::Shard*> taps;
  std::atomic<uint64_t>* forwarded = nullptr;

  // Hands one delivery of n results to every target not yet done() and to
  // every tap. The executors deliver spans; a scalar forwards as a span of
  // one.
  template <typename Deliver>
  void Forward(uint64_t n, Deliver deliver) {
    uint64_t total = 0;
    for (const auto& [sink, sh] : targets) {
      if (!sink->done()) {
        deliver(sh);
        total += n;
      }
    }
    for (Shard* sh : taps) deliver(sh);
    forwarded->fetch_add(total, std::memory_order_relaxed);
  }
  void OnPair(const OutPair& p) override { OnPairs({&p, 1}); }
  void OnCountedPair(const CountedPair& p) override {
    OnCountedPairs({&p, 1});
  }
  void OnTuple(std::span<const Value> tuple) override {
    Forward(1, [&](Shard* sh) { sh->OnTuple(tuple); });
  }
  void OnPairs(std::span<const OutPair> ps) override {
    Forward(ps.size(), [&](Shard* sh) { sh->OnPairs(ps); });
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    Forward(ps.size(), [&](Shard* sh) { sh->OnCountedPairs(ps); });
  }
};

void FanoutSink::AddTarget(ResultSink* sink) { targets_.push_back(sink); }
void FanoutSink::AddTap(ResultSink* sink) { taps_.push_back(sink); }

void FanoutSink::Open(int num_shards) {
  forwarded_.store(0, std::memory_order_relaxed);
  for (ResultSink* t : targets_) t->Open(num_shards);
  for (ResultSink* t : taps_) t->Open(num_shards);
  shards_.clear();
  for (int w = 0; w < num_shards; ++w) {
    auto sh = std::make_unique<FanShard>();
    sh->forwarded = &forwarded_;
    for (ResultSink* t : targets_) sh->targets.emplace_back(t, &t->shard(w));
    for (ResultSink* t : taps_) sh->taps.push_back(&t->shard(w));
    shards_.push_back(std::move(sh));
  }
}

ResultSink::Shard& FanoutSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

bool FanoutSink::done() const {
  if (targets_.empty()) return false;
  for (const ResultSink* t : targets_) {
    if (!t->done()) return false;
  }
  return true;
}

bool FanoutSink::supports_tuples() const {
  for (const ResultSink* t : targets_) {
    if (!t->supports_tuples()) return false;
  }
  for (const ResultSink* t : taps_) {
    if (!t->supports_tuples()) return false;
  }
  return true;
}

void FanoutSink::Finish() {
  for (ResultSink* t : targets_) t->Finish();
  for (ResultSink* t : taps_) t->Finish();
  shards_.clear();
}

// ---- RecordingSink -------------------------------------------------------

RecordingSink::RecordingSink(uint64_t max_bytes) : max_bytes_(max_bytes) {}

void RecordingSink::Open(int num_shards) {
  bytes_.store(0, std::memory_order_relaxed);
  overflowed_.store(false, std::memory_order_relaxed);
  // One shared budget across shards: charge first, keep the delivery only
  // if the whole charge fit. Once over, the sink is permanently overflowed
  // and further results are dropped (the capture is discarded anyway).
  OpenShards(num_shards, [this](size_t n, uint64_t bytes) {
    if (overflowed_.load(std::memory_order_relaxed)) return Grant{0, 0};
    if (bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes >
        max_bytes_) {
      overflowed_.store(true, std::memory_order_relaxed);
      return Grant{0, 0};
    }
    return Grant{0, n};
  });
}

}  // namespace jpmm
