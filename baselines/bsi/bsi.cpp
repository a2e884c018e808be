#include "bsi/bsi.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "join/intersection.h"
#include "storage/index.h"

namespace jpmm {
namespace {

// Filters R down to the x values appearing in the batch (the §3.3 strategy:
// "we use the requests in the batch to filter the relations R and S").
BinaryRelation FilterToConstants(const SetFamily& fam,
                                 const std::vector<uint8_t>& wanted) {
  BinaryRelation rel;
  for (Value s = 0; s < fam.num_set_ids(); ++s) {
    if (s >= wanted.size() || wanted[s] == 0) continue;
    for (Value e : fam.Elements(s)) rel.Add(s, e);
  }
  rel.Finalize();
  return rel;
}

std::vector<uint8_t> AnswerViaJoin(const SetFamily& r, const SetFamily& s,
                                   std::span<const BsiQuery> batch,
                                   Strategy strategy, int threads) {
  std::vector<uint8_t> wanted_a(r.num_set_ids(), 0);
  std::vector<uint8_t> wanted_b(s.num_set_ids(), 0);
  for (const BsiQuery& q : batch) {
    wanted_a[q.a] = 1;
    wanted_b[q.b] = 1;
  }
  QueryEngine engine;
  engine.AddRelation("R", FilterToConstants(r, wanted_a));
  engine.AddRelation("S", FilterToConstants(s, wanted_b));
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"R", "S"};
  spec.strategy = strategy;
  ExecOptions exec;
  exec.threads = std::max(1, threads);
  VectorSink sink;
  const QueryStatus st = engine.Run(spec, sink, exec);
  JPMM_CHECK_MSG(st.ok(), st.message().c_str());

  // Intersect the projected output with T.
  std::unordered_set<uint64_t, PairKeyHash> intersecting;
  intersecting.reserve(sink.pairs().size() * 2);
  for (const OutPair& p : sink.pairs()) intersecting.insert(PackPair(p.x, p.z));

  std::vector<uint8_t> answers(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    answers[i] =
        intersecting.count(PackPair(batch[i].a, batch[i].b)) > 0 ? 1 : 0;
  }
  return answers;
}

}  // namespace

std::vector<uint8_t> BsiAnswerPerQuery(const SetFamily& r, const SetFamily& s,
                                       std::span<const BsiQuery> batch,
                                       const BsiOptions& options) {
  std::vector<uint8_t> answers(batch.size(), 0);
  ParallelFor(std::max(1, options.threads), batch.size(),
              [&](size_t i0, size_t i1, int) {
                for (size_t i = i0; i < i1; ++i) {
                  answers[i] = IntersectsSorted(r.Elements(batch[i].a),
                                                s.Elements(batch[i].b))
                                   ? 1
                                   : 0;
                }
              });
  return answers;
}

std::vector<uint8_t> BsiAnswerBatchMm(const SetFamily& r, const SetFamily& s,
                                      std::span<const BsiQuery> batch,
                                      const BsiOptions& options) {
  return AnswerViaJoin(r, s, batch, Strategy::kAuto, options.threads);
}

std::vector<uint8_t> BsiAnswerBatchNonMm(const SetFamily& r,
                                         const SetFamily& s,
                                         std::span<const BsiQuery> batch,
                                         const BsiOptions& options) {
  return AnswerViaJoin(r, s, batch, Strategy::kNonMmJoin, options.threads);
}

}  // namespace jpmm
