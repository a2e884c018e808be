// Quickstart: evaluate a join-project query with jpmm.
//
//   SELECT DISTINCT R1.x, R2.x FROM R AS R1, R AS R2 WHERE R1.y = R2.y
//
// i.e. Q(x, z) = R(x,y), S(z,y) with y projected out — the paper's 2-path
// query. Register the relation with a QueryEngine, prepare the query once,
// and execute it against different ResultSinks: materialize everything,
// count only, stop at a limit, or keep the top-k by witness count —
// output-sensitive consumers never pay for full materialization.

#include <cstdio>

#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/generators.h"

using namespace jpmm;

int main() {
  // A small "friendship" graph shaped like the paper's Example 1: a few
  // dense communities. The full join is much larger than the projected
  // result, which is where matrix multiplication pays off.
  BinaryRelation friends = CommunityGraph(/*communities=*/4,
                                          /*community_size=*/64,
                                          /*p_in=*/0.6, /*seed=*/7);
  std::printf("input: %zu edges\n", friends.size());

  QueryEngine engine;
  engine.catalog().Put("friends", std::move(friends));

  // 1. Default evaluation: prepare once (indexes + operand stats), let the
  //    optimizer pick the plan on the first execution.
  QuerySpec spec;
  spec.kind = QueryKind::kTwoPath;
  spec.relations = {"friends"};

  PreparedQuery query;
  QueryStatus st = engine.Prepare(spec, &query);
  if (!st.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", st.message().c_str());
    return 1;
  }

  VectorSink all;
  ExecStats stats;
  st = engine.Execute(query, all, {}, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "execute failed: %s\n", st.message().c_str());
    return 1;
  }
  std::printf("auto plan      : %s\n", stats.plan.ToString().c_str());
  std::printf("executed       : %s\n", StrategyName(stats.executed));
  std::printf("|OUT|          : %zu pairs (%.1fx duplication in the join)\n",
              all.size(),
              static_cast<double>(stats.plan.full_join_size) /
                  static_cast<double>(all.size()));
  std::printf("wall time      : %.3f s\n\n", stats.seconds);

  // 2. Re-execute the SAME prepared query with different sinks: the plan
  //    is cached, so these skip optimization entirely.
  CountOnlySink counter;
  engine.Execute(query, counter, {}, &stats);
  std::printf("count-only     : %llu pairs (plan cache %s)\n",
              static_cast<unsigned long long>(counter.count()),
              stats.plan_cache_hit ? "hit" : "miss");

  PageSink first10(0, 10);  // the first page is the limit
  engine.Execute(query, first10, {}, &stats);
  std::printf("limit 10       : %zu pairs, heavy blocks skipped %llu/%llu\n",
              first10.size(),
              static_cast<unsigned long long>(stats.heavy_blocks_skipped),
              static_cast<unsigned long long>(stats.heavy_blocks_total));

  // 3. Top-k by witness count: "which user pairs share the most friends?"
  //    Counting needs its own spec (witness counts change the plan's work).
  QuerySpec counted_spec = spec;
  counted_spec.count_witnesses = true;
  counted_spec.min_count = 2;  // at least 2 common friends

  PreparedQuery counted_query;
  engine.Prepare(counted_spec, &counted_query);
  CountOnlySink pair_count;
  engine.Execute(counted_query, pair_count, {});
  std::printf("pairs with >= 2 common friends: %llu\n",
              static_cast<unsigned long long>(pair_count.count()));

  // Self pairs (x == z, a user with their own friend list) top every count
  // ranking, so ask for enough entries to reach the first real pair.
  OrderedBySink ranked(ResultOrder::kCountDescending, 512);
  engine.Execute(counted_query, ranked, {});
  for (const CountedPair& p : ranked.ranked()) {
    if (p.x < p.z) {
      std::printf("most-connected pair: (%u, %u) with %u common friends\n",
                  p.x, p.z, p.count);
      break;
    }
  }

  // 4. Cross-check the combinatorial strategy against the default — the
  //    pair sets must agree exactly.
  QuerySpec nonmm_spec = spec;
  nonmm_spec.strategy = Strategy::kNonMmJoin;
  VectorSink baseline;
  engine.Run(nonmm_spec, baseline, {});
  std::printf("\nNon-MM result agrees: %s (%zu pairs)\n",
              baseline.size() == all.size() ? "yes" : "NO", baseline.size());
  return 0;
}
