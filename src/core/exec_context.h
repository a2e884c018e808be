// How a query runs, and what its light part did — shared by every strategy.
//
// The paper's strategies differ only in how the heavy part is evaluated
// (MMJoin, Non-MMJoin, the WCOJ full join); the execution around it is the
// same for all of them. Three pieces say so once:
//
//   ExecContext  the HOW options (threads, kernel and partition modes, the
//                memory cap, cancel token, trace). Every layer's options
//                struct inherits it — ExecOptions, MmJoinOptions,
//                StarJoinOptions, TriangleCountOptions, HeavyProduct —
//                and forwards it to the next layer with one slice
//                assignment plus its own trace_parent.
//   LightRun     the light part's early-exit record, inherited by every
//                result struct (MmJoinResult, StarJoinResult,
//                TriangleCountResult, ExecStats) next to HeavyRun
//                (core/heavy_product.h).
//   ChunkGate    the one early-exit policy of every chunk loop: poll the
//                sink's done() and the token before each unit of work,
//                count it executed or skipped, and mark the run
//                interrupted only when a fired token actually skips work.

#ifndef JPMM_CORE_EXEC_CONTEXT_H_
#define JPMM_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "core/cancel_token.h"
#include "core/density_partition.h"
#include "core/heavy_dispatch.h"
#include "core/result_sink.h"

namespace jpmm {

class TraceRecorder;

/// The execution context of one query: everything about HOW it runs,
/// nothing about WHAT it computes.
struct ExecContext {
  /// Worker threads. QueryEngine rejects values below 1; the low-level
  /// entry points run them single-threaded.
  int threads = 1;
  /// Heavy-part kernel selection (core/heavy_dispatch.h). kAuto picks per
  /// product block between the dense blocked GEMM and the CSR kernels from
  /// the block's measured density; the force modes pin one kernel
  /// everywhere (equivalence tests diff their outputs).
  HeavyPathMode heavy_path = HeavyPathMode::kAuto;
  /// Density-adaptive heavy-product decomposition
  /// (core/density_partition.h): degree-remapped row/column bands with a
  /// kernel per block and provably-empty blocks pruned. kAuto engages the
  /// grid when it prices cheaper than the uniform row-block plan and fits
  /// the memory cap, kForce whenever a heavy product exists, kOff never.
  /// Outputs are identical in every mode (the remap is inverted at emit
  /// time). Triangle counting ignores it and always runs kOff.
  PartitionMode partition = PartitionMode::kAuto;
  /// Hard cap on the heavy-part working set. The CSR operands are always
  /// counted; the dense operands, the packed-B slab and the per-worker
  /// float row buffers only when a float kernel may run; the per-worker
  /// stamp scratch when CSR x CSR may run. Under kAuto a representation
  /// that alone would blow the cap is gated off (the query degrades to the
  /// CSR kernels); thresholds double only when even the CSR floor does not
  /// fit (recorded in the result's adjusted thresholds).
  uint64_t max_matrix_bytes = uint64_t{3} << 30;
  /// Optional cancellation token (deadline | explicit cancel), polled
  /// through a ChunkGate before every light chunk / decomposition step /
  /// heavy chunk. A fired token skips the remaining work (counted like
  /// sink-driven early exit) and sets LightRun::interrupted; results
  /// already delivered stay valid.
  const CancelToken* cancel = nullptr;
  /// Optional per-query stage tracing (core/trace.h): stage spans
  /// (threshold-fit, light-pass, heavy: csr-build / degree-remap / pack /
  /// per-block kernels, sink-finish) are recorded under `trace_parent`.
  /// Null = zero cost. Every opened span is closed on every exit path.
  TraceRecorder* trace = nullptr;
  int32_t trace_parent = -1;  // TraceRecorder::kNoParent
};

/// The light part's early-exit record. Units are light chunks for the pair
/// strategies and the triangle count, and decomposition steps for stars;
/// executed + skipped == total at every thread count.
struct LightRun {
  uint64_t light_chunks_total = 0;
  uint64_t light_chunks_executed = 0;
  uint64_t light_chunks_skipped = 0;
  /// True iff a fired CancelToken (not a sink's done()) skipped some
  /// planned work of the run, light or heavy. A token that fires after the
  /// last unit completed leaves it false: the output is complete.
  bool interrupted = false;
};

/// The early-exit policy of one chunk loop, shared by its workers. Before
/// each unit of work a loop calls Claim(): the sink's done() and the
/// token's Fired() are polled, and the unit is counted executed (run it)
/// or skipped (drop it). Only a fired token latches interrupted(); a
/// satisfied sink is a normal early exit.
class ChunkGate {
 public:
  ChunkGate(const ResultSink* sink, const CancelToken* cancel)
      : sink_(sink), cancel_(cancel) {}
  ChunkGate(const ChunkGate&) = delete;
  ChunkGate& operator=(const ChunkGate&) = delete;

  /// Polls without claiming a unit: true when the remaining work must be
  /// skipped. A fired token latches interrupted().
  bool Stopped() {
    if (sink_ != nullptr && sink_->done()) return true;
    if (cancel_ != nullptr && cancel_->Fired()) {
      interrupted_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Claims the next unit. True: run it (one unit counted executed).
  /// False: the run stops here, and the `n` units this claim stands for —
  /// this one and those the caller drops with it — are counted skipped.
  bool Claim(uint64_t n = 1) {
    if (Stopped()) {
      skipped_.fetch_add(n, std::memory_order_relaxed);
      return false;
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  uint64_t executed() const { return executed_.load(); }
  uint64_t skipped() const { return skipped_.load(); }
  bool interrupted() const { return interrupted_.load(); }

  /// The record of a part planned as `total` units, all claimed here.
  LightRun Record(uint64_t total) const {
    return LightRun{total, executed(), skipped(), interrupted()};
  }

 private:
  const ResultSink* sink_;
  const CancelToken* cancel_;
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> skipped_{0};
  std::atomic<bool> interrupted_{false};
};

}  // namespace jpmm

#endif  // JPMM_CORE_EXEC_CONTEXT_H_
