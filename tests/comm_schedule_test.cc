// The one collective schedule (comm/schedule.h) and its in-memory executor
// (comm/algorithms.h), pinned three ways:
//  - memcmp against the shared-memory folds it replaced, kept verbatim
//    below as references, over every algorithm x world x numel x dtype x
//    op x pool size x SIMD level, plus fp16 and the six other collectives;
//  - the per-rank wire-call list (kind, peer, bytes) the socket executor
//    makes, as a table recorded from the per-algorithm TCP schedules it
//    replaced, so fault-shim hit counts and chaos seeds replay unchanged;
//  - the bytes each rank sends against the traffic term the cost model
//    charges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/algorithms.h"
#include "comm/schedule.h"
#include "comm/sim_world.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "sim/collective_algo.h"
#include "sim/comm_cost_model.h"
#include "sim/topology.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {
namespace reference {

// ---------------------------------------------------------------------------
// The shared-memory folds of comm/algorithms.cc before the schedule IR,
// verbatim: the references the in-memory executor must match bit for bit.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
T Combine(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kBor:
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(a | b);
      } else {
        // Logical-or semantics for float bitmaps.
        return (a != 0 || b != 0) ? T{1} : T{0};
      }
  }
  return a;
}

/// dst[0..len) = Combine(dst, src) lanewise — the one combine loop every
/// algorithm below funnels through. Float/double sum and max dispatch into
/// the SIMD layer (bit-exact at every vector width, see common/vec.h); the
/// remaining (integer, kBor) combinations stay scalar.
template <typename T>
void CombineSpan(ReduceOp op, T* dst, const T* src, int64_t len) {
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    if (op == ReduceOp::kSum) {
      vec::AccumulateAdd(dst, src, len);
      return;
    }
    if (op == ReduceOp::kMax) {
      vec::AccumulateMax(dst, src, len);
      return;
    }
  }
  // ddplint: allow(raw-elementwise-loop) integer / kBor fallback; the vec
  // layer covers the float and double sum/max hot paths above
  for (int64_t i = 0; i < len; ++i) dst[i] = Combine(op, dst[i], src[i]);
}

template <typename T>
void CopySpan(T* dst, const T* src, int64_t len) {
  if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    vec::Copy(dst, src, len);
  } else {
    if (len > 0) std::memcpy(dst, src, static_cast<size_t>(len) * sizeof(T));
  }
}

/// Naive: combine contributions in ascending rank order into rank 0's
/// buffer, then copy everywhere (gather + local reduce + broadcast). The
/// reference combine order for the zoo property tests. Parallelized over
/// elements; each element still accumulates ranks in ascending order, so
/// the sum is bit-exact regardless of thread count.
template <typename T>
void NaiveAllReduce(ReduceOp op, const std::vector<T*>& bufs, int64_t n) {
  const int world = static_cast<int>(bufs.size());
  T* acc = bufs[0];
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 1; r < world; ++r) {
      CombineSpan(op, acc + b, bufs[static_cast<size_t>(r)] + b, e - b);
    }
  });
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 1; r < world; ++r) {
      CopySpan(bufs[static_cast<size_t>(r)] + b, acc + b, e - b);
    }
  });
}

/// Ring: split the array into world * chunks_per_rank chunks. Chunk c is
/// reduced by walking the ring starting at rank (c % world + 1) % world and
/// accumulating until it returns to its owner — exactly the combine order
/// of a reduce-scatter — then all-gathered to every rank.
///
/// chunks_per_rank == 1 is the classic two-phase ring (one chunk per rank
/// per step). chunks_per_rank > 1 is the pipelined variant after
/// fbcollective's allreduce_ring_chunked: with several in-flight chunks per
/// rank, the reduce of chunk k overlaps the transfer of chunk k-1 and the
/// bottleneck link stays busy through the whole collective. The data plane
/// models exactly that chunking, so the two variants have *different* (but
/// each individually deterministic) per-element summation orders.
template <typename T>
void RingAllReduce(ReduceOp op, const std::vector<T*>& bufs, int64_t n,
                   int chunks_per_rank) {
  const int world = static_cast<int>(bufs.size());
  const int num_chunks = world * chunks_per_rank;
  const int64_t base = n / num_chunks;
  const int64_t rem = n % num_chunks;
  auto chunk_begin = [&](int c) {
    return base * c + std::min<int64_t>(c, rem);
  };
  auto chunk_size = [&](int c) { return base + (c < rem ? 1 : 0); };

  std::vector<T> reduced(static_cast<size_t>(n));
  for (int c = 0; c < num_chunks; ++c) {
    const int64_t begin = chunk_begin(c);
    const int64_t len = chunk_size(c);
    if (len == 0) continue;
    // Start from the ring successor of the chunk owner. Elements within the
    // chunk are split across threads; each element is combined in the same
    // ring order as the serial loop, so the result is bit-exact.
    const int owner = c % world;
    const T* src0 = bufs[static_cast<size_t>((owner + 1) % world)] + begin;
    T* dst = reduced.data() + begin;
    ParallelFor(0, len, GrainFromCost(world), [&](int64_t b, int64_t e) {
      CopySpan(dst + b, src0 + b, e - b);
      for (int s = 2; s <= world; ++s) {
        const T* src = bufs[static_cast<size_t>((owner + s) % world)] + begin;
        CombineSpan(op, dst + b, src + b, e - b);
      }
    });
  }
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 0; r < world; ++r) {
      CopySpan(bufs[static_cast<size_t>(r)] + b, reduced.data() + b, e - b);
    }
  });
}

/// Tree: recursive-doubling reduction to rank 0 followed by a broadcast
/// (NCCL 2.4's tree mode, cited by the paper [22]).
template <typename T>
void TreeAllReduce(ReduceOp op, const std::vector<T*>& bufs, int64_t n) {
  const int world = static_cast<int>(bufs.size());
  std::vector<std::vector<T>> acc(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    acc[static_cast<size_t>(r)].resize(static_cast<size_t>(n));
  }
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 0; r < world; ++r) {
      CopySpan(acc[static_cast<size_t>(r)].data() + b,
               bufs[static_cast<size_t>(r)] + b, e - b);
    }
  });
  // Rounds stay sequential (each halving depends on the previous); within a
  // round the (dst, src) pairs write disjoint buffers and each element keeps
  // the recursive-doubling combine order.
  for (int span = 1; span < world; span *= 2) {
    std::vector<std::pair<T*, const T*>> pairs;
    for (int r = 0; r + span < world; r += 2 * span) {
      pairs.emplace_back(acc[static_cast<size_t>(r)].data(),
                         acc[static_cast<size_t>(r + span)].data());
    }
    if (pairs.empty()) continue;
    ParallelFor(0, n, GrainFromCost(static_cast<int64_t>(pairs.size())),
                [&](int64_t b, int64_t e) {
      for (auto& [dst, src] : pairs) {
        CombineSpan(op, dst + b, src + b, e - b);
      }
    });
  }
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 0; r < world; ++r) {
      CopySpan(bufs[static_cast<size_t>(r)] + b, acc[0].data() + b, e - b);
    }
  });
}

/// Recursive halving-doubling (the MPICH/Rabenseifner pattern): fold any
/// ranks beyond the leading power of two into it, recursive-halving
/// reduce-scatter (partner distance and owned segment both halve each
/// round), recursive-doubling all-gather (the exact reverse), then fan the
/// result back out to the folded ranks. Every element is reduced along a
/// fixed binary tree over ranks, so the combine order depends only on
/// (world, n) and each element is finalized by exactly one owner — all
/// ranks end bit-identical by construction.
template <typename T>
void HalvingDoublingAllReduce(ReduceOp op, const std::vector<T*>& bufs,
                              int64_t n) {
  const int world = static_cast<int>(bufs.size());
  int pof2 = 1;
  while (pof2 * 2 <= world) pof2 *= 2;
  const int rem = world - pof2;

  // Fold: odd ranks below 2*rem combine into their even neighbor, which
  // then represents both in the power-of-two phase.
  for (int r = 0; r < rem; ++r) {
    T* dst = bufs[static_cast<size_t>(2 * r)];
    const T* src = bufs[static_cast<size_t>(2 * r + 1)];
    ParallelFor(0, n, GrainFromCost(2), [&](int64_t b, int64_t e) {
      CombineSpan(op, dst + b, src + b, e - b);
    });
  }
  // Participant p's global rank: even survivors first, then the tail.
  auto part_rank = [&](int p) { return p < rem ? 2 * p : p + rem; };

  std::vector<int64_t> beg(static_cast<size_t>(pof2), 0);
  std::vector<int64_t> end(static_cast<size_t>(pof2), n);

  // Recursive halving. Pair members share a segment by induction (their
  // higher mask bits match, so every earlier keep-low/keep-high decision
  // matched); the keeper combines its own value with the partner's.
  for (int mask = pof2 / 2; mask >= 1; mask /= 2) {
    for (int p = 0; p < pof2; ++p) {
      const int q = p ^ mask;
      if (q < p) continue;
      T* lo = bufs[static_cast<size_t>(part_rank(p))];
      T* hi = bufs[static_cast<size_t>(part_rank(q))];
      const int64_t b = beg[static_cast<size_t>(p)];
      const int64_t e = end[static_cast<size_t>(p)];
      const int64_t mid = b + (e - b) / 2;
      // Writes are confined to each keeper's half, so hi's read of
      // lo[mid, e) and lo's read of hi[b, mid) see pre-round values.
      ParallelFor(b, mid, GrainFromCost(2), [&](int64_t s, int64_t t) {
        CombineSpan(op, lo + s, hi + s, t - s);
      });
      ParallelFor(mid, e, GrainFromCost(2), [&](int64_t s, int64_t t) {
        CombineSpan(op, hi + s, lo + s, t - s);
      });
      end[static_cast<size_t>(p)] = mid;
      beg[static_cast<size_t>(q)] = mid;
    }
  }

  // Recursive doubling: reverse the splits, exchanging adjacent segments.
  for (int mask = 1; mask < pof2; mask *= 2) {
    for (int p = 0; p < pof2; ++p) {
      const int q = p ^ mask;
      if (q < p) continue;
      T* lo = bufs[static_cast<size_t>(part_rank(p))];
      T* hi = bufs[static_cast<size_t>(part_rank(q))];
      const int64_t pb = beg[static_cast<size_t>(p)];
      const int64_t pe = end[static_cast<size_t>(p)];
      const int64_t qb = beg[static_cast<size_t>(q)];
      const int64_t qe = end[static_cast<size_t>(q)];
      ParallelFor(pb, pe, kParallelGrain, [&](int64_t s, int64_t t) {
        CopySpan(hi + s, lo + s, t - s);
      });
      ParallelFor(qb, qe, kParallelGrain, [&](int64_t s, int64_t t) {
        CopySpan(lo + s, hi + s, t - s);
      });
      const int64_t nb = std::min(pb, qb);
      const int64_t ne = std::max(pe, qe);
      beg[static_cast<size_t>(p)] = beg[static_cast<size_t>(q)] = nb;
      end[static_cast<size_t>(p)] = end[static_cast<size_t>(q)] = ne;
    }
  }

  // Unfold: folded odd ranks copy the result from their even neighbor.
  for (int r = 0; r < rem; ++r) {
    T* dst = bufs[static_cast<size_t>(2 * r + 1)];
    const T* src = bufs[static_cast<size_t>(2 * r)];
    ParallelFor(0, n, kParallelGrain, [&](int64_t b, int64_t e) {
      CopySpan(dst + b, src + b, e - b);
    });
  }
}

/// Hierarchical two-level (keyed off the topology's host boundaries, ranks
/// host-major): each node reduces into its leader in ascending rank order
/// (NVLink-tier traffic), leaders run a classic ring across nodes (the only
/// NIC-tier traffic: 2*(nodes-1)/nodes of the bytes instead of
/// 2*(world-1)/world), then each leader broadcasts inside its node. A
/// single-node world degenerates to exactly the kNaive combine order.
template <typename T>
void HierarchicalAllReduce(ReduceOp op, const std::vector<T*>& bufs,
                           int64_t n, int ranks_per_node) {
  const int world = static_cast<int>(bufs.size());
  if (ranks_per_node <= 0) ranks_per_node = sim::Topology().gpus_per_host();
  const int nodes = (world + ranks_per_node - 1) / ranks_per_node;

  std::vector<T*> leaders;
  for (int node = 0; node < nodes; ++node) {
    const int lo = node * ranks_per_node;
    const int hi = std::min(world, lo + ranks_per_node);
    T* leader = bufs[static_cast<size_t>(lo)];
    for (int r = lo + 1; r < hi; ++r) {
      const T* src = bufs[static_cast<size_t>(r)];
      ParallelFor(0, n, GrainFromCost(2), [&](int64_t b, int64_t e) {
        CombineSpan(op, leader + b, src + b, e - b);
      });
    }
    leaders.push_back(leader);
  }
  if (leaders.size() > 1) {
    RingAllReduce(op, leaders, n, /*chunks_per_rank=*/1);
  }
  for (int node = 0; node < nodes; ++node) {
    const int lo = node * ranks_per_node;
    const int hi = std::min(world, lo + ranks_per_node);
    const T* leader = bufs[static_cast<size_t>(lo)];
    for (int r = lo + 1; r < hi; ++r) {
      T* dst = bufs[static_cast<size_t>(r)];
      ParallelFor(0, n, kParallelGrain, [&](int64_t b, int64_t e) {
        CopySpan(dst + b, leader + b, e - b);
      });
    }
  }
}

template <typename T>
void DispatchAllReduceRaw(Algorithm algorithm, ReduceOp op,
                          const std::vector<T*>& bufs, int64_t n,
                          int ranks_per_node) {
  if (algorithm == Algorithm::kAuto) {
    // Callers with a configured topology (ProcessGroupSim) resolve kAuto
    // themselves; this standalone path selects against the testbed default.
    algorithm = sim::SelectAllReduceAlgorithm(
        static_cast<size_t>(n) * sizeof(T), static_cast<int>(bufs.size()),
        sim::Topology());
  }
  switch (algorithm) {
    case Algorithm::kNaive:
      NaiveAllReduce<T>(op, bufs, n);
      return;
    case Algorithm::kRing:
      RingAllReduce<T>(op, bufs, n, /*chunks_per_rank=*/1);
      return;
    case Algorithm::kTree:
      TreeAllReduce<T>(op, bufs, n);
      return;
    case Algorithm::kRingChunked:
      RingAllReduce<T>(op, bufs, n, sim::kRingChunksPerRank);
      return;
    case Algorithm::kHalvingDoubling:
      HalvingDoublingAllReduce<T>(op, bufs, n);
      return;
    case Algorithm::kHierarchical:
      HierarchicalAllReduce<T>(op, bufs, n, ranks_per_node);
      return;
    case Algorithm::kAuto:
      break;  // resolved above
  }
  DDPKIT_CHECK(false) << "bad algorithm";
}

/// Half-precision all-reduce: accumulate in float (as GPU tensor cores do)
/// in deterministic rank order, store back as half. Used by the gradient
/// compression extension (paper §6.2.3). The half<->float conversion loops
/// dominate, so all algorithm variants share this one rank-order path.
void Fp16AllReduce(ReduceOp op, const std::vector<Tensor>& tensors) {
  DDPKIT_CHECK(op == ReduceOp::kSum) << "fp16 all-reduce supports sum only";
  const int world = static_cast<int>(tensors.size());
  const int64_t n = tensors[0].numel();
  std::vector<float> acc(static_cast<size_t>(n));
  std::vector<const uint16_t*> srcs;
  for (int r = 0; r < world; ++r) srcs.push_back(tensors[r].data<uint16_t>());
  // Per-element fp32 accumulation in ascending rank order, then the half
  // stores; both conversion loops are element-parallel.
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      float v = 0.0f;
      // ddplint: allow(raw-elementwise-loop) half bits convert through
      // fp32 per element; no packed fp16 arithmetic in the vec layer
      for (const uint16_t* src : srcs) v += HalfBitsToFloat32(src[i]);
      acc[i] = v;
    }
  });
  ParallelFor(0, n, GrainFromCost(world), [&](int64_t b, int64_t e) {
    for (int r = 0; r < world; ++r) {
      uint16_t* dst = const_cast<Tensor&>(tensors[r]).data<uint16_t>();
      // ddplint: allow(raw-elementwise-loop) half bits convert through
      // fp32 per element; no packed fp16 arithmetic in the vec layer
      for (int64_t i = b; i < e; ++i) dst[i] = Float32ToHalfBits(acc[i]);
    }
  });
}

template <typename T>
std::vector<T*> GatherPointers(const std::vector<Tensor>& tensors) {
  std::vector<T*> bufs;
  bufs.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    bufs.push_back(const_cast<Tensor&>(t).data<T>());
  }
  return bufs;
}

}  // namespace

template <typename T>
void RunAllReduceRaw(Algorithm algorithm, ReduceOp op,
                     const std::vector<T*>& bufs, int64_t n,
                     int ranks_per_node) {
  DDPKIT_CHECK(!bufs.empty());
  DDPKIT_CHECK(n >= 0);
  if (bufs.size() == 1 || n == 0) return;
  DispatchAllReduceRaw<T>(algorithm, op, bufs, n, ranks_per_node);
}

template void RunAllReduceRaw<float>(Algorithm, ReduceOp,
                                     const std::vector<float*>&, int64_t,
                                     int);
template void RunAllReduceRaw<double>(Algorithm, ReduceOp,
                                      const std::vector<double*>&, int64_t,
                                      int);
template void RunAllReduceRaw<int64_t>(Algorithm, ReduceOp,
                                       const std::vector<int64_t*>&, int64_t,
                                       int);
template void RunAllReduceRaw<uint8_t>(Algorithm, ReduceOp,
                                       const std::vector<uint8_t*>&, int64_t,
                                       int);

void RunAllReduce(Algorithm algorithm, ReduceOp op,
                  const std::vector<Tensor>& tensors, int ranks_per_node) {
  DDPKIT_CHECK(!tensors.empty());
  const int64_t n = tensors[0].numel();
  const DType dtype = tensors[0].dtype();
  for (const Tensor& t : tensors) {
    DDPKIT_CHECK(t.is_contiguous());
    DDPKIT_CHECK_EQ(t.numel(), n);
    DDPKIT_CHECK(t.dtype() == dtype);
  }
  if (tensors.size() == 1 || n == 0) return;
  switch (dtype) {
    case DType::kFloat32:
      DispatchAllReduceRaw<float>(algorithm, op, GatherPointers<float>(tensors),
                                  n, ranks_per_node);
      return;
    case DType::kUInt8:
      DispatchAllReduceRaw<uint8_t>(
          algorithm, op, GatherPointers<uint8_t>(tensors), n, ranks_per_node);
      return;
    case DType::kInt64:
      DispatchAllReduceRaw<int64_t>(
          algorithm, op, GatherPointers<int64_t>(tensors), n, ranks_per_node);
      return;
    case DType::kFloat16:
      Fp16AllReduce(op, tensors);
      return;
    default:
      DDPKIT_CHECK(false) << "AllReduce unsupported dtype "
                          << DTypeName(dtype);
  }
}

void RunBroadcast(const std::vector<Tensor>& tensors, int root) {
  DDPKIT_CHECK(!tensors.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(tensors.size()));
  const Tensor& src = tensors[static_cast<size_t>(root)];
  for (size_t r = 0; r < tensors.size(); ++r) {
    if (static_cast<int>(r) == root) continue;
    const_cast<Tensor&>(tensors[r]).CopyFrom(src);
  }
}

namespace {

template <typename T>
void ReduceInto(ReduceOp op, const std::vector<Tensor>& tensors,
                Tensor* dest) {
  const int64_t n = dest->numel();
  T* acc = dest->data<T>();
  std::vector<const T*> srcs;
  for (const Tensor& t : tensors) {
    if (t.id() == dest->id()) continue;
    srcs.push_back(t.data<T>());
  }
  ParallelFor(0, n, GrainFromCost(static_cast<int64_t>(srcs.size()) + 1),
              [&](int64_t b, int64_t e) {
    for (const T* src : srcs) CombineSpan(op, acc + b, src + b, e - b);
  });
}

}  // namespace

void RunReduce(Algorithm /*algorithm*/, ReduceOp op,
               const std::vector<Tensor>& tensors, int root) {
  DDPKIT_CHECK(!tensors.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(tensors.size()));
  Tensor dest = tensors[static_cast<size_t>(root)];
  for (const Tensor& t : tensors) {
    DDPKIT_CHECK(t.is_contiguous());
    DDPKIT_CHECK_EQ(t.numel(), dest.numel());
    DDPKIT_CHECK(t.dtype() == dest.dtype());
  }
  switch (dest.dtype()) {
    case DType::kFloat32:
      ReduceInto<float>(op, tensors, &dest);
      return;
    case DType::kUInt8:
      ReduceInto<uint8_t>(op, tensors, &dest);
      return;
    case DType::kInt64:
      ReduceInto<int64_t>(op, tensors, &dest);
      return;
    default:
      DDPKIT_CHECK(false) << "Reduce unsupported dtype "
                          << DTypeName(dest.dtype());
  }
}

void RunReduceScatter(ReduceOp op, const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& outputs) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK_EQ(inputs.size(), outputs.size());
  const int world = static_cast<int>(inputs.size());
  const int64_t chunk = outputs[0].numel();
  for (int r = 0; r < world; ++r) {
    DDPKIT_CHECK_EQ(inputs[static_cast<size_t>(r)].numel(), chunk * world);
    DDPKIT_CHECK_EQ(outputs[static_cast<size_t>(r)].numel(), chunk);
    DDPKIT_CHECK(inputs[static_cast<size_t>(r)].dtype() == DType::kFloat32)
        << "ReduceScatter supports float32";
  }
  // Chunk c reduced in ring order starting at rank (c+1) % world, matching
  // RingAllReduce's combine order; elements within a chunk are
  // thread-partitioned without reordering any element's summation.
  for (int c = 0; c < world; ++c) {
    Tensor out = outputs[static_cast<size_t>(c)];
    float* acc = out.data<float>();
    const int first = (c + 1) % world;
    const float* src0 =
        inputs[static_cast<size_t>(first)].data<float>() + c * chunk;
    ParallelFor(0, chunk, GrainFromCost(world), [&](int64_t b, int64_t e) {
      CopySpan(acc + b, src0 + b, e - b);
      for (int s = 2; s <= world; ++s) {
        const float* src =
            inputs[static_cast<size_t>((c + s) % world)].data<float>() +
            c * chunk;
        CombineSpan(op, acc + b, src + b, e - b);
      }
    });
  }
}

void RunGather(const std::vector<Tensor>& inputs, Tensor output_root,
               int root) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(inputs.size()));
  const int world = static_cast<int>(inputs.size());
  const int64_t n = inputs[0].numel();
  DDPKIT_CHECK_EQ(output_root.numel(), n * world);
  for (int r = 0; r < world; ++r) {
    output_root.Narrow(0, r * n, n)
        .CopyFrom(inputs[static_cast<size_t>(r)].Flatten());
  }
}

void RunAllGather(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK_EQ(inputs.size(), outputs.size());
  const int world = static_cast<int>(inputs.size());
  const int64_t n = inputs[0].numel();
  for (const Tensor& out : outputs) {
    DDPKIT_CHECK_EQ(out.numel(), n * world);
  }
  for (int q = 0; q < world; ++q) {
    Tensor out = outputs[static_cast<size_t>(q)];
    for (int r = 0; r < world; ++r) {
      out.Narrow(0, r * n, n)
          .CopyFrom(inputs[static_cast<size_t>(r)].Flatten());
    }
  }
}

}  // namespace reference

namespace {

/// Restores the pool size and the SIMD level when a test exits.
class DispatchGuard {
 public:
  ~DispatchGuard() {
    ThreadPool::SetNumThreads(threads_);
    vec::SetLevelForTesting(level_);
  }

 private:
  int threads_ = ThreadPool::Global().num_threads();
  vec::Level level_ = vec::ActiveLevel();
};

std::vector<vec::Level> HostLevels() {
  std::vector<vec::Level> levels;
  for (const vec::Level level :
       {vec::Level::kScalar, vec::Level::kAvx2, vec::Level::kAvx512}) {
    if (vec::DetectedLevel() >= level) levels.push_back(level);
  }
  return levels;
}

const int kWorlds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16};
const int kPools[] = {1, 2, 8};

std::vector<int64_t> Numels(int world) {
  return {0, 1, world - 1, 193, 4099};
}

/// Random contributions; floats also carry -0 and NaN on some elements so
/// kMax's operand order (NaN on the left loses) shows in the bits.
template <typename T>
std::vector<std::vector<T>> MakeInputs(int world, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<T>> bufs(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto& b = bufs[static_cast<size_t>(r)];
    b.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      T x{};
      if constexpr (std::is_floating_point_v<T>) {
        x = static_cast<T>(rng.Uniform(-2.0, 2.0));
        if (i % 37 == 5 && r == i % world) x = T(-0.0);
        if (i % 53 == 7 && r == (i + 1) % world) {
          x = std::numeric_limits<T>::quiet_NaN();
        }
      } else if constexpr (std::is_same_v<T, int64_t>) {
        x = static_cast<T>(rng.UniformInt(2000)) - 1000;
      } else {
        x = static_cast<T>(rng.UniformInt(256));
      }
      b[static_cast<size_t>(i)] = x;
    }
  }
  return bufs;
}

template <typename T>
std::vector<T*> Pointers(std::vector<std::vector<T>>* bufs) {
  std::vector<T*> ps;
  for (auto& b : *bufs) ps.push_back(b.data());
  return ps;
}

template <typename T>
bool SameBytes(const std::vector<std::vector<T>>& a,
               const std::vector<std::vector<T>>& b) {
  for (size_t r = 0; r < a.size(); ++r) {
    if (std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(T)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameBytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  for (size_t r = 0; r < a.size(); ++r) {
    if (std::memcmp(a[r].data<uint8_t>(), b[r].data<uint8_t>(),
                    a[r].nbytes()) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<Tensor> Clones(const std::vector<Tensor>& tensors) {
  std::vector<Tensor> out;
  for (const Tensor& t : tensors) out.push_back(t.Clone());
  return out;
}

struct ZooCase {
  Algorithm algorithm;
  int ranks_per_node;
};

class ScheduleZooTest : public ::testing::TestWithParam<ZooCase> {};

/// Every world x numel x op for one dtype, the executor at every pool size
/// (and, for the SIMD-dispatched float types, every level) against the
/// reference fold.
template <typename T>
void SweepAgainstReference(const ZooCase& c) {
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kBor};
  const std::vector<vec::Level> levels =
      std::is_floating_point_v<T> ? HostLevels()
                                  : std::vector<vec::Level>{
                                        vec::ActiveLevel()};
  for (const int world : kWorlds) {
    for (const int64_t n : Numels(world)) {
      const auto inputs = MakeInputs<T>(
          world, n, 0x5c4e + static_cast<uint64_t>(world * 10007 + n));
      for (const ReduceOp op : ops) {
        auto want = inputs;
        reference::RunAllReduceRaw<T>(c.algorithm, op, Pointers(&want), n,
                                      c.ranks_per_node);
        for (const int pool : kPools) {
          ThreadPool::SetNumThreads(pool);
          for (const vec::Level level : levels) {
            vec::SetLevelForTesting(level);
            auto got = inputs;
            RunAllReduceRaw<T>(c.algorithm, op, Pointers(&got), n,
                               c.ranks_per_node);
            if (!SameBytes(want, got)) {
              ADD_FAILURE() << "world " << world << " n " << n << " op "
                            << ReduceOpName(op) << " sizeof " << sizeof(T)
                            << " pool " << pool << " level "
                            << vec::LevelName(level);
              return;
            }
          }
        }
      }
    }
  }
}

TEST_P(ScheduleZooTest, AllReduceMatchesReferenceFoldBitExact) {
  DispatchGuard guard;
  SweepAgainstReference<float>(GetParam());
  SweepAgainstReference<double>(GetParam());
  SweepAgainstReference<int64_t>(GetParam());
  SweepAgainstReference<uint8_t>(GetParam());
}

// The sweep above stays below ParallelFor's grain; this one splits every
// combine and copy across the pool.
TEST_P(ScheduleZooTest, LargeBuffersMatchAcrossPoolsAndLevels) {
  DispatchGuard guard;
  const int64_t n = 70001;
  for (const int world : {2, 3, 5, 8}) {
    const auto inputs = MakeInputs<float>(world, n, 0x1a7 + world);
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax}) {
      auto want = inputs;
      reference::RunAllReduceRaw<float>(GetParam().algorithm, op,
                                        Pointers(&want), n,
                                        GetParam().ranks_per_node);
      for (const int pool : kPools) {
        ThreadPool::SetNumThreads(pool);
        for (const vec::Level level : HostLevels()) {
          vec::SetLevelForTesting(level);
          auto got = inputs;
          RunAllReduceRaw<float>(GetParam().algorithm, op, Pointers(&got), n,
                                 GetParam().ranks_per_node);
          EXPECT_TRUE(SameBytes(want, got))
              << "world " << world << " op " << ReduceOpName(op) << " pool "
              << pool << " level " << vec::LevelName(level);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ScheduleZooTest,
    ::testing::Values(ZooCase{Algorithm::kNaive, 0},
                      ZooCase{Algorithm::kRing, 0},
                      ZooCase{Algorithm::kTree, 0},
                      ZooCase{Algorithm::kRingChunked, 0},
                      ZooCase{Algorithm::kHalvingDoubling, 0},
                      ZooCase{Algorithm::kHierarchical, 0},
                      ZooCase{Algorithm::kHierarchical, 2},
                      ZooCase{Algorithm::kHierarchical, 3},
                      ZooCase{Algorithm::kAuto, 0}),
    [](const ::testing::TestParamInfo<ZooCase>& info) {
      return std::string(AlgorithmName(info.param.algorithm)) + "_rpn" +
             std::to_string(info.param.ranks_per_node);
    });

Tensor HalfTensor(int64_t n, Rng* rng) {
  Tensor t = Tensor::Empty({n}, DType::kFloat16);
  uint16_t* bits = t.data<uint16_t>();
  for (int64_t i = 0; i < n; ++i) {
    bits[i] =
        Float32ToHalfBits(static_cast<float>(rng->Uniform(-4.0, 4.0)));
  }
  return t;
}

// fp16 runs one fp32-accumulate order under every algorithm.
TEST(ScheduleCollectivesTest, Fp16SumMatchesReference) {
  DispatchGuard guard;
  const Algorithm algorithms[] = {
      Algorithm::kNaive,       Algorithm::kRing,
      Algorithm::kTree,        Algorithm::kRingChunked,
      Algorithm::kHalvingDoubling, Algorithm::kHierarchical,
      Algorithm::kAuto};
  for (const int world : kWorlds) {
    for (const int64_t n : {int64_t{1}, int64_t{193}, int64_t{40000}}) {
      Rng rng(0xf16 + static_cast<uint64_t>(world * 7 + n));
      std::vector<Tensor> inputs;
      for (int r = 0; r < world; ++r) inputs.push_back(HalfTensor(n, &rng));
      std::vector<Tensor> want = Clones(inputs);
      reference::RunAllReduce(Algorithm::kRing, ReduceOp::kSum, want, 0);
      for (const Algorithm algorithm : algorithms) {
        for (const int pool : kPools) {
          ThreadPool::SetNumThreads(pool);
          std::vector<Tensor> got = Clones(inputs);
          RunAllReduce(algorithm, ReduceOp::kSum, got);
          EXPECT_TRUE(SameBytes(want, got))
              << AlgorithmName(algorithm) << " world " << world << " n " << n
              << " pool " << pool;
        }
      }
    }
  }
}

std::vector<Tensor> RandomTensors(int world, int64_t n, DType dtype,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int r = 0; r < world; ++r) {
    Tensor t = Tensor::Empty({n}, dtype);
    uint8_t* bytes = t.data<uint8_t>();
    for (size_t i = 0; i < t.nbytes(); ++i) {
      bytes[i] = static_cast<uint8_t>(rng.UniformInt(256));
    }
    if (dtype == DType::kFloat32 || dtype == DType::kFloat64) {
      for (int64_t i = 0; i < n; ++i) t.FlatSet(i, rng.Uniform(-2.0, 2.0));
    }
    out.push_back(t);
  }
  return out;
}

TEST(ScheduleCollectivesTest, BroadcastAllGatherGatherMatchReference) {
  for (const int world : kWorlds) {
    for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{193}}) {
      for (const DType dtype :
           {DType::kFloat32, DType::kUInt8, DType::kFloat16}) {
        SCOPED_TRACE("world " + std::to_string(world) + " n " +
                     std::to_string(n) + " " + DTypeName(dtype));
        const auto inputs = RandomTensors(world, n, dtype, 0xb0 + world + n);
        for (const int root : {0, world / 2, world - 1}) {
          std::vector<Tensor> want = Clones(inputs);
          std::vector<Tensor> got = Clones(inputs);
          reference::RunBroadcast(want, root);
          RunBroadcast(got, root);
          EXPECT_TRUE(SameBytes(want, got)) << "broadcast root " << root;

          Tensor want_out = Tensor::Zeros({n * world}, dtype);
          Tensor got_out = Tensor::Zeros({n * world}, dtype);
          reference::RunGather(inputs, want_out, root);
          RunGather(inputs, got_out, root);
          EXPECT_TRUE(SameBytes({want_out}, {got_out})) << "gather root "
                                                        << root;
        }
        std::vector<Tensor> want_out, got_out;
        for (int r = 0; r < world; ++r) {
          want_out.push_back(Tensor::Zeros({n * world}, dtype));
          got_out.push_back(Tensor::Zeros({n * world}, dtype));
        }
        reference::RunAllGather(inputs, want_out);
        RunAllGather(inputs, got_out);
        EXPECT_TRUE(SameBytes(want_out, got_out)) << "allgather";
      }
    }
  }
}

TEST(ScheduleCollectivesTest, ReduceAndReduceScatterMatchReference) {
  DispatchGuard guard;
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kBor};
  for (const int world : kWorlds) {
    for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{193}}) {
      for (const DType dtype : {DType::kFloat32, DType::kFloat64,
                                DType::kInt64, DType::kUInt8}) {
        SCOPED_TRACE("world " + std::to_string(world) + " n " +
                     std::to_string(n) + " " + DTypeName(dtype));
        const auto inputs =
            RandomTensors(world, n * world, dtype, 0x4ed + world + n);
        for (const ReduceOp op : ops) {
          for (const int pool : kPools) {
            ThreadPool::SetNumThreads(pool);
            for (const int root : {0, world - 1}) {
              std::vector<Tensor> want = Clones(inputs);
              std::vector<Tensor> got = Clones(inputs);
              Tensor dest = want[static_cast<size_t>(root)];
              VisitElementType(Collective::kReduce, dtype, [&](auto tag) {
                reference::ReduceInto<decltype(tag)>(op, want, &dest);
              });
              RunReduce(op, got, root);
              EXPECT_TRUE(SameBytes(want, got))
                  << "reduce root " << root << " op " << ReduceOpName(op);
            }
            // Reduce-scatter is the classic ring's phase 1: rank r's output
            // is chunk r of the ring all-reduce (the reference fold for
            // float32, whose only dtype it was).
            std::vector<Tensor> got_out, want_out;
            for (int r = 0; r < world; ++r) {
              got_out.push_back(Tensor::Zeros({n}, dtype));
              want_out.push_back(Tensor::Zeros({n}, dtype));
            }
            if (dtype == DType::kFloat32) {
              reference::RunReduceScatter(op, inputs, want_out);
            } else {
              std::vector<Tensor> ring = Clones(inputs);
              VisitElementType(Collective::kReduce, dtype, [&](auto tag) {
                using T = decltype(tag);
                std::vector<T*> ps;
                for (Tensor& t : ring) ps.push_back(t.data<T>());
                reference::RunAllReduceRaw<T>(Algorithm::kRing, op, ps,
                                              n * world, 0);
              });
              for (int r = 0; r < world; ++r) {
                want_out[static_cast<size_t>(r)].CopyFrom(
                    ring[0].Narrow(0, r * n, n));
              }
            }
            RunReduceScatter(op, inputs, got_out);
            EXPECT_TRUE(SameBytes(want_out, got_out))
                << "reduce_scatter op " << ReduceOpName(op);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wire calls: per rank, "S<peer>:<bytes>" for a send, "R<peer>:<bytes>" for
// a receive, "E<to>:<bytes>/<from>:<bytes>" for an exchange, in issue
// order (the TCP header exchange before them is not part of the schedule).
// Recorded from the per-algorithm TCP schedules the generator replaced,
// for 13 float32 elements (fp16: 13 halves; reduce-scatter: 3 per rank;
// root 1 where there is one).
// ---------------------------------------------------------------------------

struct WireCase {
  const char* name;
  int world;
  std::vector<std::string> ranks;
};

const WireCase kWireTable[] = {
    {"naive", 3,
     {"R1:52 R2:52 S1:52 S2:52",
      "S0:52 R0:52",
      "S0:52 R0:52"}},
    {"naive", 5,
     {"R1:52 R2:52 R3:52 R4:52 S1:52 S2:52 S3:52 S4:52",
      "S0:52 R0:52",
      "S0:52 R0:52",
      "S0:52 R0:52",
      "S0:52 R0:52"}},
    {"ring", 3,
     {"E1:16/2:16 E1:16/2:20 E1:20/2:16 E1:16/2:16",
      "E2:20/0:16 E2:16/0:16 E2:16/0:20 E2:20/0:16",
      "E0:16/1:20 E0:20/1:16 E0:16/1:16 E0:16/1:20"}},
    {"ring", 5,
     {"E1:8/4:8 E1:8/4:12 E1:12/4:12 E1:12/4:12 E1:12/4:8 "
       "E1:8/4:8 E1:8/4:12 E1:12/4:12",
      "E2:12/0:8 E2:8/0:8 E2:8/0:12 E2:12/0:12 E2:12/0:12 "
       "E2:12/0:8 E2:8/0:8 E2:8/0:12",
      "E3:12/1:12 E3:12/1:8 E3:8/1:8 E3:8/1:12 E3:12/1:12 "
       "E3:12/1:12 E3:12/1:8 E3:8/1:8",
      "E4:12/2:12 E4:12/2:12 E4:12/2:8 E4:8/2:8 E4:8/2:12 "
       "E4:12/2:12 E4:12/2:12 E4:12/2:8",
      "E0:8/3:12 E0:12/3:12 E0:12/3:12 E0:12/3:8 E0:8/3:8 "
       "E0:8/3:12 E0:12/3:12 E0:12/3:12"}},
    {"ring_chunked", 3,
     {"E1:16/2:16 E1:16/2:20 E1:20/2:16 E1:16/2:16",
      "E2:20/0:16 E2:16/0:16 E2:16/0:20 E2:20/0:16",
      "E0:16/1:20 E0:20/1:16 E0:16/1:16 E0:16/1:20"}},
    {"ring_chunked", 5,
     {"E1:8/4:8 E1:8/4:12 E1:12/4:12 E1:12/4:12 E1:12/4:8 "
       "E1:8/4:8 E1:8/4:12 E1:12/4:12",
      "E2:12/0:8 E2:8/0:8 E2:8/0:12 E2:12/0:12 E2:12/0:12 "
       "E2:12/0:8 E2:8/0:8 E2:8/0:12",
      "E3:12/1:12 E3:12/1:8 E3:8/1:8 E3:8/1:12 E3:12/1:12 "
       "E3:12/1:12 E3:12/1:8 E3:8/1:8",
      "E4:12/2:12 E4:12/2:12 E4:12/2:8 E4:8/2:8 E4:8/2:12 "
       "E4:12/2:12 E4:12/2:12 E4:12/2:8",
      "E0:8/3:12 E0:12/3:12 E0:12/3:12 E0:12/3:8 E0:8/3:8 "
       "E0:8/3:12 E0:12/3:12 E0:12/3:12"}},
    {"halving_doubling", 3,
     {"R1:52 E2:28/2:24 E2:24/2:28 S1:52",
      "S0:52 R0:52",
      "E0:24/0:28 E0:28/0:24"}},
    {"halving_doubling", 5,
     {"R1:52 E3:28/3:24 E2:12/2:12 E2:12/2:12 E3:24/3:28 S1:52",
      "S0:52 R0:52",
      "E4:28/4:24 E0:12/0:12 E0:12/0:12 E4:24/4:28",
      "E0:24/0:28 E4:16/4:12 E4:12/4:16 E0:28/0:24",
      "E2:24/2:28 E3:12/3:16 E3:16/3:12 E2:28/2:24"}},
    {"tree", 3,
     {"R1:52 R2:52 S1:52 S2:52",
      "S0:52 R0:52",
      "S0:52 R0:52"}},
    {"tree", 5,
     {"R1:52 R2:52 R4:52 S1:52 S2:52 S3:52 S4:52",
      "S0:52 R0:52",
      "R3:52 S0:52 R0:52",
      "S2:52 R0:52",
      "S0:52 R0:52"}},
    {"fp16", 3,
     {"R1:26 R2:26 S1:26 S2:26",
      "S0:26 R0:26",
      "S0:26 R0:26"}},
    {"fp16", 5,
     {"R1:26 R2:26 R3:26 R4:26 S1:26 S2:26 S3:26 S4:26",
      "S0:26 R0:26",
      "S0:26 R0:26",
      "S0:26 R0:26",
      "S0:26 R0:26"}},
    {"broadcast", 3,
     {"R1:52",
      "S0:52 S2:52",
      "R1:52"}},
    {"broadcast", 5,
     {"R1:52",
      "S0:52 S2:52 S3:52 S4:52",
      "R1:52",
      "R1:52",
      "R1:52"}},
    {"allgather", 3,
     {"E1:52/2:52 E1:52/2:52",
      "E2:52/0:52 E2:52/0:52",
      "E0:52/1:52 E0:52/1:52"}},
    {"allgather", 5,
     {"E1:52/4:52 E1:52/4:52 E1:52/4:52 E1:52/4:52",
      "E2:52/0:52 E2:52/0:52 E2:52/0:52 E2:52/0:52",
      "E3:52/1:52 E3:52/1:52 E3:52/1:52 E3:52/1:52",
      "E4:52/2:52 E4:52/2:52 E4:52/2:52 E4:52/2:52",
      "E0:52/3:52 E0:52/3:52 E0:52/3:52 E0:52/3:52"}},
    {"reduce", 3,
     {"S1:52",
      "R0:52 R2:52",
      "S1:52"}},
    {"reduce", 5,
     {"S1:52",
      "R0:52 R2:52 R3:52 R4:52",
      "S1:52",
      "S1:52",
      "S1:52"}},
    {"reduce_scatter", 3,
     {"E1:12/2:12 E1:12/2:12",
      "E2:12/0:12 E2:12/0:12",
      "E0:12/1:12 E0:12/1:12"}},
    {"reduce_scatter", 5,
     {"E1:12/4:12 E1:12/4:12 E1:12/4:12 E1:12/4:12",
      "E2:12/0:12 E2:12/0:12 E2:12/0:12 E2:12/0:12",
      "E3:12/1:12 E3:12/1:12 E3:12/1:12 E3:12/1:12",
      "E4:12/2:12 E4:12/2:12 E4:12/2:12 E4:12/2:12",
      "E0:12/3:12 E0:12/3:12 E0:12/3:12 E0:12/3:12"}},
    {"gather", 3,
     {"S1:52",
      "R0:52 R2:52",
      "S1:52"}},
    {"gather", 5,
     {"S1:52",
      "R0:52 R2:52 R3:52 R4:52",
      "S1:52",
      "S1:52",
      "S1:52"}},
    {"barrier", 3,
     {"R1:1 R2:1 S1:1 S2:1",
      "S0:1 R0:1",
      "S0:1 R0:1"}},
    {"barrier", 5,
     {"R1:1 R2:1 R3:1 R4:1 S1:1 S2:1 S3:1 S4:1",
      "S0:1 R0:1",
      "S0:1 R0:1",
      "S0:1 R0:1",
      "S0:1 R0:1"}},
};

std::string WireCalls(const Schedule& schedule, size_t elem) {
  std::string out;
  auto bytes = [&](const Span& span) {
    return std::to_string(static_cast<size_t>(span.len) * elem);
  };
  for (const Step& step : schedule.steps) {
    std::string call;
    switch (step.kind) {
      case StepKind::kSend:
        call = "S" + std::to_string(step.to) + ":" + bytes(step.src);
        break;
      case StepKind::kRecv:
        call = "R" + std::to_string(step.from) + ":" + bytes(step.dst);
        break;
      case StepKind::kExchange:
        call = "E" + std::to_string(step.to) + ":" + bytes(step.src) + "/" +
               std::to_string(step.from) + ":" + bytes(step.dst);
        break;
      case StepKind::kCombine:
      case StepKind::kCopy:
        continue;
    }
    out += (out.empty() ? "" : " ") + call;
  }
  return out;
}

TEST(ScheduleWireTest, PerRankWireCallsMatchRecordedTable) {
  const std::pair<const char*, Algorithm> algorithms[] = {
      {"naive", Algorithm::kNaive},
      {"ring", Algorithm::kRing},
      {"ring_chunked", Algorithm::kRingChunked},
      {"halving_doubling", Algorithm::kHalvingDoubling},
      {"tree", Algorithm::kTree}};
  for (const WireCase& c : kWireTable) {
    const std::string name = c.name;
    ScheduleParams p;
    p.world = c.world;
    p.numel = 13;
    p.root = 1;
    size_t elem = sizeof(float);
    if (name == "fp16") {
      p.fp32_accumulate = true;
      elem = sizeof(uint16_t);
    } else if (name == "broadcast" || name == "allgather" ||
               name == "gather" || name == "barrier") {
      p.kind = name == "broadcast"   ? Collective::kBroadcast
               : name == "allgather" ? Collective::kAllGather
               : name == "gather"    ? Collective::kGather
                                     : Collective::kBarrier;
      p.numel = 13 * sizeof(float);  // byte moves
      elem = 1;
    } else if (name == "reduce") {
      p.kind = Collective::kReduce;
    } else if (name == "reduce_scatter") {
      p.kind = Collective::kReduceScatter;
      p.numel = 3;
    } else {
      for (const auto& [algo_name, algo] : algorithms) {
        if (name == algo_name) p.algorithm = algo;
      }
    }
    for (int rank = 0; rank < c.world; ++rank) {
      p.rank = rank;
      EXPECT_EQ(c.ranks[static_cast<size_t>(rank)],
                WireCalls(MakeSchedule(p), elem))
          << name << " world " << c.world << " rank " << rank;
    }
  }
}

// ---------------------------------------------------------------------------
// The cost model's bandwidth term, read back from the model: the closed
// form charges traffic / bandwidth, so (t(bytes) - t(0)) * bandwidth is the
// traffic it prices. It must equal what each rank sends under the schedule.
// ---------------------------------------------------------------------------

class ChargedTraffic : public sim::NcclCostModel {
 public:
  ChargedTraffic() : sim::NcclCostModel(sim::Topology()) {}

  double Bytes(Algorithm algorithm, size_t bytes, int world) const {
    const AlgoModelParams p = AlgoParams(bytes, world, 1);
    const double bandwidth = algorithm == Algorithm::kRingChunked
                                 ? p.chunked_bandwidth
                                 : p.ring_bandwidth;
    return (CommCostModel::AllReduceSeconds(bytes, world, 1, algorithm) -
            CommCostModel::AllReduceSeconds(0, world, 1, algorithm)) *
           bandwidth;
  }
};

TEST(ScheduleCostTest, SentBytesEqualCostModelTrafficTerm) {
  const ChargedTraffic model;
  // Divisible by world * chunks_per_rank for every world below.
  const int64_t n = 16 * sim::kRingChunksPerRank * 3;
  const size_t bytes = static_cast<size_t>(n) * sizeof(float);
  for (const Algorithm algorithm :
       {Algorithm::kRing, Algorithm::kRingChunked,
        Algorithm::kHalvingDoubling}) {
    for (const int world : {2, 4, 8, 16}) {
      const double charged = model.Bytes(algorithm, bytes, world);
      EXPECT_NEAR(charged,
                  2.0 * (world - 1) / static_cast<double>(world) *
                      static_cast<double>(bytes),
                  1e-6 * static_cast<double>(bytes));
      ScheduleParams p;
      p.algorithm = algorithm;
      p.world = world;
      p.numel = n;
      for (int rank = 0; rank < world; ++rank) {
        p.rank = rank;
        int64_t sent = 0;
        for (const Step& step : MakeSchedule(p).steps) {
          if (step.kind == StepKind::kSend ||
              step.kind == StepKind::kExchange) {
            sent += step.src.len;
          }
        }
        EXPECT_NEAR(static_cast<double>(sent) * sizeof(float), charged,
                    1e-6 * static_cast<double>(bytes))
            << AlgorithmName(algorithm) << " world " << world << " rank "
            << rank;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProcessGroupSim: calls the executors cannot run fail typed before issue
// (they used to abort the process); float64 all-reduce and int64
// reduce-scatter, which the executors handle, run.
// ---------------------------------------------------------------------------

TEST(ScheduleSimGroupTest, UnsupportedCallsFailTypedBeforeIssue) {
  constexpr int kWorld = 2;
  const int64_t n = 33;
  std::vector<std::vector<double>> doubles(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    for (int64_t i = 0; i < n; ++i) {
      doubles[static_cast<size_t>(r)].push_back((r + 1) * 0.1 * i + 1.0 / 3);
    }
  }
  auto expected = doubles;
  reference::RunAllReduceRaw<double>(Algorithm::kRing, ReduceOp::kSum,
                                     Pointers(&expected), n, 0);
  SimWorld::Run(kWorld, [&](SimWorld::RankContext& ctx) {
    Tensor d = Tensor::Empty({n}, DType::kFloat64);
    std::memcpy(d.data<double>(), doubles[static_cast<size_t>(ctx.rank)].data(),
                static_cast<size_t>(n) * sizeof(double));
    ASSERT_TRUE(ctx.process_group->AllReduce(d, ReduceOp::kSum)
                    ->Wait(ctx.clock, 30.0)
                    .ok());
    EXPECT_EQ(0, std::memcmp(expected[static_cast<size_t>(ctx.rank)].data(),
                             d.data<double>(),
                             static_cast<size_t>(n) * sizeof(double)));

    Tensor half = Tensor::Zeros({8}, DType::kFloat16);
    WorkHandle max = ctx.process_group->AllReduce(half, ReduceOp::kMax);
    ASSERT_TRUE(max->Poll());
    EXPECT_EQ(WorkError::kShapeMismatch, max->error());

    Tensor in = Tensor::FromVectorInt64({1, 2, 3, 4}, {4});
    Tensor out = Tensor::Zeros({2}, DType::kInt64);
    ASSERT_TRUE(ctx.process_group->ReduceScatter(in, out, ReduceOp::kSum)
                    ->Wait(ctx.clock, 30.0)
                    .ok());
    EXPECT_EQ(out.data<int64_t>()[0], 2 * (1 + 2 * ctx.rank));
    EXPECT_EQ(out.data<int64_t>()[1], 2 * (2 + 2 * ctx.rank));

    Tensor f = Tensor::Full({1}, ctx.rank + 1.0);
    ASSERT_TRUE(ctx.process_group->AllReduce(f, ReduceOp::kSum)
                    ->Wait(ctx.clock, 30.0)
                    .ok());
    EXPECT_DOUBLE_EQ(f.FlatAt(0), 3.0);
  });
}

}  // namespace
}  // namespace ddpkit::comm
