#include "ssj/size_aware.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "join/intersection.h"
#include "ssj/size_boundary.h"

namespace jpmm {

void CanonicalizeSsj(SsjResult* result, bool ordered) {
  if (ordered) {
    std::sort(result->begin(), result->end(),
              [](const SimilarPair& x, const SimilarPair& y) {
                if (x.overlap != y.overlap) return x.overlap > y.overlap;
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
  } else {
    std::sort(result->begin(), result->end());
  }
}

SsjResult ToSsjResult(VectorSink& sink, bool ordered) {
  SsjResult out;
  if (ordered) {
    out.reserve(sink.counted().size());
    for (const CountedPair& p : sink.counted()) {
      out.push_back(SimilarPair{p.x, p.z, p.count});
    }
  } else {
    out.reserve(sink.pairs().size());
    for (const OutPair& p : sink.pairs()) {
      out.push_back(SimilarPair{p.x, p.z, 0});
    }
  }
  CanonicalizeSsj(&out, ordered);
  return out;
}

SsjResult SizeAwareHeavyPhase(const SetFamily& fam, uint32_t c,
                              uint32_t boundary, int threads) {
  // Heavy sets joined against all sets: R JOIN Rh of Algorithm 2 line 3.
  std::vector<Value> heavy;
  for (Value s = 0; s < fam.num_set_ids(); ++s) {
    if (fam.SetSize(s) >= boundary) heavy.push_back(s);
  }
  threads = std::max(1, threads);

  std::vector<SsjResult> partial(static_cast<size_t>(threads));
  ParallelFor(threads, heavy.size(), [&](size_t i0, size_t i1, int w) {
    StampCounter counter(fam.num_set_ids());
    std::vector<Value> touched;
    SsjResult& out = partial[static_cast<size_t>(w)];
    for (size_t i = i0; i < i1; ++i) {
      const Value h = heavy[i];
      counter.NewEpoch();
      touched.clear();
      for (Value e : fam.Elements(h)) {
        for (Value r : fam.InvertedList(e)) {
          if (counter.Add(r, 1) == 0) touched.push_back(r);
        }
      }
      for (Value r : touched) {
        if (r == h) continue;
        const uint32_t overlap = counter.Get(r);
        if (overlap < c) continue;
        // Emit each unordered pair once: heavy-heavy pairs when r < h,
        // light partners always (they never run a heavy scan themselves).
        if (fam.SetSize(r) >= boundary && r > h) continue;
        out.push_back(SimilarPair{std::min(r, h), std::max(r, h), overlap});
      }
    }
  });

  SsjResult out;
  for (auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

SsjResult SizeAwareLightPhase(const SetFamily& fam, uint32_t c,
                              uint32_t boundary, bool compute_overlap) {
  // Buckets keyed by c-subset; two light sets sharing a bucket overlap in
  // >= c elements (Algorithm 2 lines 4-8).
  struct VecHash {
    size_t operator()(const std::vector<Value>& v) const {
      size_t seed = v.size();
      for (Value x : v) HashCombine(&seed, x);
      return seed;
    }
  };
  std::unordered_map<std::vector<Value>, std::vector<Value>, VecHash> buckets;

  std::vector<Value> subset(c);
  for (Value s = 0; s < fam.num_set_ids(); ++s) {
    const uint32_t size = fam.SetSize(s);
    if (size < c || size >= boundary) continue;
    const auto elems = fam.Elements(s);
    // Odometer over index combinations (ascending), generating all
    // C(size, c) subsets.
    std::vector<uint32_t> idx(c);
    for (uint32_t i = 0; i < c; ++i) idx[i] = i;
    for (;;) {
      for (uint32_t i = 0; i < c; ++i) subset[i] = elems[idx[i]];
      buckets[subset].push_back(s);
      // Advance combination.
      int pos = static_cast<int>(c) - 1;
      while (pos >= 0 &&
             idx[pos] == size - c + static_cast<uint32_t>(pos)) {
        --pos;
      }
      if (pos < 0) break;
      ++idx[pos];
      for (uint32_t i = static_cast<uint32_t>(pos) + 1; i < c; ++i) {
        idx[i] = idx[i - 1] + 1;
      }
    }
  }

  // A pair may share many c-subsets: dedup globally (line 8's "if not
  // output already").
  std::unordered_set<uint64_t, PairKeyHash> seen;
  SsjResult out;
  for (const auto& [key, sets] : buckets) {
    for (size_t i = 0; i < sets.size(); ++i) {
      for (size_t j = i + 1; j < sets.size(); ++j) {
        const Value a = std::min(sets[i], sets[j]);
        const Value b = std::max(sets[i], sets[j]);
        if (a == b) continue;
        if (seen.insert(PackPair(a, b)).second) {
          uint32_t overlap = 0;
          if (compute_overlap) {
            overlap = static_cast<uint32_t>(
                IntersectCount(fam.Elements(a), fam.Elements(b)));
          }
          out.push_back(SimilarPair{a, b, overlap});
        }
      }
    }
  }
  return out;
}

SsjResult SizeAwareJoin(const SetFamily& fam, const SsjOptions& options) {
  JPMM_CHECK(options.c >= 1);
  const uint32_t boundary = options.boundary_override != 0
                                ? options.boundary_override
                                : GetSizeBoundary(fam, options.c);
  SsjResult out =
      SizeAwareHeavyPhase(fam, options.c, boundary, options.threads);
  SsjResult light =
      SizeAwareLightPhase(fam, options.c, boundary, options.ordered);
  out.insert(out.end(), light.begin(), light.end());
  if (!options.ordered) {
    // Heavy phase filled overlaps as a by-product; zero them for a
    // deterministic unordered contract.
    for (auto& p : out) p.overlap = 0;
  }
  CanonicalizeSsj(&out, options.ordered);
  return out;
}

}  // namespace jpmm
