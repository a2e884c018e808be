#include "join/dbms_baselines.h"

#include "join/hash_join.h"
#include "join/sorted_set_ops.h"
#include "join/sort_merge_join.h"

namespace jpmm {

std::vector<OutPair> PostgresLikeJoinProject(const IndexedRelation& r,
                                             const IndexedRelation& s) {
  return HashJoinProject(r, s, DedupMode::kSortUnique);
}

std::vector<OutPair> MySqlLikeJoinProject(const BinaryRelation& r,
                                          const BinaryRelation& s) {
  return SortMergeJoinProject(r, s);
}

std::vector<OutPair> SystemXLikeJoinProject(const IndexedRelation& r,
                                            const IndexedRelation& s) {
  return HashJoinProject(r, s, DedupMode::kPreallocatedHash);
}

std::vector<OutPair> EmptyHeadedLikeJoinProject(const IndexedRelation& r,
                                                const IndexedRelation& s) {
  std::vector<OutPair> out;
  std::vector<std::span<const Value>> lists;
  std::vector<Value> zs;
  for (Value a = 0; a < r.num_x(); ++a) {
    const auto ys = r.YsOf(a);
    if (ys.empty()) continue;
    lists.clear();
    for (Value b : ys) {
      const auto zl = s.XsOf(b);
      if (!zl.empty()) lists.push_back(zl);
    }
    if (lists.empty()) continue;
    zs.clear();
    KWayUnion(lists, &zs);
    for (Value c : zs) out.push_back(OutPair{a, c});
  }
  return out;
}

}  // namespace jpmm
