#include "scj/limit_plus.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "join/sorted_set_ops.h"

namespace jpmm {

ScjResult LimitPlusJoin(const SetFamily& fam, const ScjOptions& options) {
  JPMM_CHECK(options.limit >= 1);
  const int threads = std::max(1, options.threads);

  std::vector<ScjResult> partial(static_cast<size_t>(threads));
  ParallelFor(threads, fam.num_set_ids(), [&](size_t s0, size_t s1, int w) {
    ScjResult& out = partial[static_cast<size_t>(w)];
    std::vector<Value> rare;      // the `limit` rarest elements of r
    std::vector<Value> cand, next;
    for (size_t s = s0; s < s1; ++s) {
      const auto r = static_cast<Value>(s);
      const uint32_t size = fam.SetSize(r);
      if (size == 0) continue;
      const auto elems = fam.Elements(r);

      // Pick the `limit` elements with the shortest inverted lists.
      rare.assign(elems.begin(), elems.end());
      const size_t keep = std::min<size_t>(options.limit, rare.size());
      std::partial_sort(rare.begin(), rare.begin() + keep, rare.end(),
                        [&](Value a, Value b) {
                          const uint32_t la = fam.ListSize(a);
                          const uint32_t lb = fam.ListSize(b);
                          return la != lb ? la < lb : a < b;
                        });

      // Candidates = intersection of their inverted lists.
      cand.assign(fam.InvertedList(rare[0]).begin(),
                  fam.InvertedList(rare[0]).end());
      for (size_t i = 1; i < keep && !cand.empty(); ++i) {
        next.clear();
        IntersectSorted(cand, fam.InvertedList(rare[i]), &next);
        cand.swap(next);
      }

      // Verification: merge-based subset test (the step §4 calls out as the
      // bottleneck when sets are large).
      for (Value super : cand) {
        if (super == r || fam.SetSize(super) < size) continue;
        if (IsSubsetSorted(elems, fam.Elements(super))) {
          out.push_back(ContainmentPair{r, super});
        }
      }
    }
  });

  ScjResult out;
  for (auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  CanonicalizeScj(&out);
  return out;
}

}  // namespace jpmm
