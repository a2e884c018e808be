#include "scj/piejoin.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "join/sorted_set_ops.h"

namespace jpmm {

ScjResult PieJoin(const SetFamily& fam, const ScjOptions& options) {
  const int threads = std::max(1, options.threads);

  // Infrequent-first order, as in PRETTI/PIEJoin.
  std::vector<uint32_t> rank(fam.num_element_ids());
  std::vector<Value> rank_to_elem(fam.num_element_ids());
  {
    std::vector<Value> order(fam.num_element_ids());
    for (Value e = 0; e < fam.num_element_ids(); ++e) order[e] = e;
    std::sort(order.begin(), order.end(), [&](Value a, Value b) {
      const uint32_t la = fam.ListSize(a), lb = fam.ListSize(b);
      return la != lb ? la < lb : a < b;
    });
    for (uint32_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = i;
      rank_to_elem[i] = order[i];
    }
  }

  struct SeqSet {
    std::vector<uint32_t> seq;
    Value id;
  };
  std::vector<SeqSet> sets;
  for (Value s = 0; s < fam.num_set_ids(); ++s) {
    if (fam.SetSize(s) == 0) continue;
    SeqSet e;
    e.id = s;
    for (Value el : fam.Elements(s)) e.seq.push_back(rank[el]);
    std::sort(e.seq.begin(), e.seq.end());
    sets.push_back(std::move(e));
  }
  std::sort(sets.begin(), sets.end(),
            [](const SeqSet& a, const SeqSet& b) { return a.seq < b.seq; });

  // Static partitioning by leading-element rank: the heuristic partitioner
  // whose skew-sensitivity §7.4 observes. Partition p handles sets whose
  // first rank falls in its range; within a partition, prefix walks reuse
  // intersections exactly like PRETTI.
  const uint32_t num_elems = std::max<Value>(1, fam.num_element_ids());
  const uint32_t span = (num_elems + threads - 1) / threads;

  std::vector<ScjResult> partial(static_cast<size_t>(threads));
  ParallelFor(threads, static_cast<size_t>(threads),
              [&](size_t p0, size_t p1, int) {
    for (size_t p = p0; p < p1; ++p) {
      const uint32_t lo = static_cast<uint32_t>(p) * span;
      const uint32_t hi = lo + span;
      ScjResult& out = partial[p];

      std::vector<std::vector<Value>> memo;
      std::vector<uint32_t> memo_seq;
      std::vector<Value> scratch;
      for (const SeqSet& st : sets) {
        if (st.seq[0] < lo || st.seq[0] >= hi) continue;
        uint32_t lcp = 0;
        while (lcp < memo_seq.size() && lcp < st.seq.size() &&
               memo_seq[lcp] == st.seq[lcp]) {
          ++lcp;
        }
        memo.resize(lcp);
        memo_seq.resize(lcp);
        for (uint32_t d = lcp; d < st.seq.size(); ++d) {
          const auto list = fam.InvertedList(rank_to_elem[st.seq[d]]);
          scratch.clear();
          if (d == 0) {
            scratch.assign(list.begin(), list.end());
          } else {
            IntersectSorted(memo[d - 1], list, &scratch);
          }
          if (scratch.empty()) break;
          memo.push_back(scratch);
          memo_seq.push_back(st.seq[d]);
        }
        if (memo.size() == st.seq.size()) {
          for (Value s : memo.back()) {
            if (s != st.id) out.push_back(ContainmentPair{st.id, s});
          }
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
