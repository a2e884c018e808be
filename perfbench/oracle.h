// Answer checking for the benchmark: an order-independent digest sink the
// timed executions stream into, and reference answers computed once per run
// with the WCOJ strategy at one thread.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/result_sink.h"
#include "storage/index.h"

namespace perfbench {

/// Result count plus a sum of per-result hashes: equal digests mean equal
/// result multisets with overwhelming probability, whatever the order.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t hash) {
    ++count;
    sum += hash;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

uint64_t PairHash(jpmm::Value x, jpmm::Value z);
uint64_t CountedHash(const jpmm::CountedPair& p);
uint64_t TupleHash(std::span<const jpmm::Value> tuple);

/// Digests everything delivered to it: pairs, counted pairs or star tuples.
/// Never finishes early, so the query runs to completion.
class DigestSink : public jpmm::ResultSink {
 public:
  DigestSink();
  ~DigestSink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  /// Sum of the shard digests; valid after Finish().
  Digest digest() const;

 private:
  struct DigestShard;
  std::vector<std::unique_ptr<DigestShard>> shards_;
};

/// Reference answers of the two-path self join pi_{x,z}(R(x,y) JOIN R(z,y)).
struct TwoPathOracle {
  Digest plain;    // over (x, z)
  Digest counted;  // over (x, z, witness count)
  /// The `top_k` highest-count pairs: count descending, (x, z) ascending —
  /// the TopKByCountSink order.
  std::vector<jpmm::CountedPair> top;
};

/// Runs the WCOJ strategy at one thread over `rel` joined with itself.
TwoPathOracle ComputeTwoPathOracle(const jpmm::IndexedRelation& rel,
                                   size_t top_k);

/// Digest of the 3-way star self join pi_{x1,x2,x3}(R(x1,y) JOIN R(x2,y)
/// JOIN R(x3,y)), enumerated worst-case-optimally at one thread.
Digest ComputeStarOracle(const jpmm::IndexedRelation& rel);

/// |{y : (x, y) in R and (z, y) in R}| — the witness count of (x, z); zero
/// means (x, z) is not in the two-path answer.
uint32_t Witnesses(const jpmm::IndexedRelation& rel, jpmm::Value x,
                   jpmm::Value z);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
