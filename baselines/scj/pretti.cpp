#include "scj/pretti.h"

#include <algorithm>

#include "join/sorted_set_ops.h"

namespace jpmm {

void CanonicalizeScj(ScjResult* result) {
  std::sort(result->begin(), result->end());
}

ScjResult ToScjResult(VectorSink& sink) {
  ScjResult out;
  out.reserve(sink.pairs().size());
  for (const OutPair& p : sink.pairs()) {
    out.push_back(ContainmentPair{p.x, p.z});
  }
  CanonicalizeScj(&out);
  return out;
}

ScjResult PrettiJoin(const SetFamily& fam, const ScjOptions& /*options*/) {
  // Infrequent-first global element order (ascending inverted-list length):
  // rare elements prune candidate lists fastest.
  std::vector<uint32_t> rank(fam.num_element_ids());
  {
    std::vector<Value> order(fam.num_element_ids());
    for (Value e = 0; e < fam.num_element_ids(); ++e) order[e] = e;
    std::sort(order.begin(), order.end(), [&](Value a, Value b) {
      const uint32_t la = fam.ListSize(a), lb = fam.ListSize(b);
      return la != lb ? la < lb : a < b;
    });
    for (uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  }
  std::vector<Value> rank_to_elem(fam.num_element_ids());
  for (Value e = 0; e < fam.num_element_ids(); ++e) rank_to_elem[rank[e]] = e;

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

  // DFS over the implicit prefix tree: a stack of running intersections,
  // reused across sets sharing a prefix.
  std::vector<std::vector<Value>> memo;     // memo[d] = candidates at depth d+1
  std::vector<uint32_t> memo_seq;
  std::vector<Value> scratch;
  ScjResult out;

  for (const SeqSet& st : sets) {
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
      if (scratch.empty()) break;  // no superset can exist below this node
      memo.push_back(scratch);
      memo_seq.push_back(st.seq[d]);
    }

    if (memo.size() == st.seq.size() && !st.seq.empty()) {
      for (Value s : memo.back()) {
        if (s != st.id) out.push_back(ContainmentPair{st.id, s});
      }
    }
  }
  CanonicalizeScj(&out);
  return out;
}

}  // namespace jpmm
