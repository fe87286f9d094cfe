#ifndef DDPKIT_COMM_ALGORITHMS_H_
#define DDPKIT_COMM_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "comm/process_group.h"
#include "comm/schedule.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {

/// The in-memory executor: the Run* entry points below build every rank's
/// schedule (comm/schedule.h) and walk them all in the calling thread,
/// matching each send with its peer's receive and copying the message once,
/// sender buffer to receiver buffer. ProcessGroupSim, the tests and the
/// benches call them; ProcessGroupTcp walks the same schedules over
/// sockets, so the two data planes share every combine order.
///
/// The algorithm zoo (naive, ring, tree, pipelined chunked ring, recursive
/// halving-doubling, hierarchical two-level — paper §2.3's "sophisticated
/// algorithms" of real collective libraries) is keyed by
/// sim::CollectiveAlgorithm, so the analytical cost models and the data
/// plane share one enum; see that header for each variant's canonical
/// combine order. Floating-point results are bit-deterministic given the
/// algorithm and world size.
const char* AlgorithmName(Algorithm algorithm);

/// In-place all-reduce across per-rank contributions: on return every
/// tensor holds the elementwise reduction of all of them. Tensors must be
/// contiguous, same numel, same dtype (float32, float64, int64, uint8, or
/// float16 with kSum).
///
/// `ranks_per_node` feeds kHierarchical's node boundaries (ranks are laid
/// out host-major, matching sim::Topology); 0 means the testbed default of
/// 8 GPUs per host. Algorithm::kAuto is resolved against the default
/// topology; callers with a configured topology (ProcessGroupSim) resolve
/// kAuto themselves before calling.
void RunAllReduce(Algorithm algorithm, ReduceOp op,
                  const std::vector<Tensor>& tensors, int ranks_per_node = 0);

/// Raw-buffer all-reduce: bufs[r] points at rank r's `n` elements, reduced
/// in place across all ranks. Same algorithms and combine orders as the
/// Tensor overload; exposed so tests and benches can sweep dtypes the
/// Tensor layer only partially supports (double). Instantiated for float,
/// double, int64_t and uint8_t.
template <typename T>
void RunAllReduceRaw(Algorithm algorithm, ReduceOp op,
                     const std::vector<T*>& bufs, int64_t n,
                     int ranks_per_node = 0);

/// Copies tensors[root] into every other tensor.
void RunBroadcast(const std::vector<Tensor>& tensors, int root);

/// Concatenates inputs (rank order) into every output: outputs[q] must have
/// world * inputs[r].numel() elements.
void RunAllGather(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs);

/// Reduces all contributions into tensors[root] only (other tensors are
/// left untouched): the root combines the others in ascending rank order,
/// on every backend and whatever all-reduce algorithm it is configured
/// with. float32, float64, int64 or uint8.
void RunReduce(ReduceOp op, const std::vector<Tensor>& tensors, int root);

/// Ring reduce-scatter: inputs[r] has world*n elements; outputs[r] (n
/// elements) receives the fully-reduced chunk r. This is literally the
/// first phase of the ring all-reduce (paper §2.3), exposed on its own.
/// Same dtypes as Reduce.
void RunReduceScatter(ReduceOp op, const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& outputs);

/// Gathers every rank's input into output_root (world*n elements) in rank
/// order; only the root's output is written.
void RunGather(const std::vector<Tensor>& inputs, Tensor output_root,
               int root);

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_ALGORITHMS_H_
