#ifndef DDPKIT_COMM_SCHEDULE_H_
#define DDPKIT_COMM_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "comm/process_group.h"
#include "common/status.h"
#include "sim/collective_algo.h"
#include "tensor/tensor.h"

namespace ddpkit::comm {

/// One per-rank collective schedule, two executors (DESIGN.md §10–§11).
///
/// MakeSchedule turns (collective, algorithm, world, rank, numel,
/// ranks_per_node) into this rank's ordered steps. Every algorithm — and
/// with it every combine order — is defined once, here. The socket
/// executor in ProcessGroupTcp walks one rank's steps over the mesh; the
/// in-memory executor in comm/algorithms.cc walks all ranks' steps in one
/// thread. Both run the local steps through RunLocalStep, so the sim and
/// TCP data planes are bit-identical by construction, not by test.

using Algorithm = sim::CollectiveAlgorithm;

/// Collective kinds. The values are the TCP wire header's `kind` byte.
enum class Collective : uint8_t {
  kAllReduce = 1,
  kBroadcast = 2,
  kAllGather = 3,
  kReduce = 4,
  kReduceScatter = 5,
  kGather = 6,
  kBarrier = 7,
};
const char* CollectiveName(Collective kind);

/// The buffers a span points into, all indexed in elements of the
/// executor's element type.
enum class Region : uint8_t {
  kData,     // the in-place tensor, or the output of a gather/scatter
  kInput,    // the separate input of AllGather / ReduceScatter / Gather
  kScratch,  // per-op scratch, Schedule::scratch elements
  kAccum,    // fp32 accumulator, Schedule::accum floats (fp16 all-reduce)
};

struct Span {
  Region region = Region::kData;
  int64_t offset = 0;
  int64_t len = 0;
};

enum class StepKind : uint8_t {
  kSend,      // src -> to
  kRecv,      // dst <- from
  kExchange,  // src -> to and dst <- from, issued together
  kCombine,   // dst = op(dst, src) lanewise: dst is always the left operand.
              // A kAccum dst adds half-precision src in fp32 instead.
  kCopy,      // dst = src. A kAccum src rounds fp32 to half.
};

struct Step {
  StepKind kind = StepKind::kCopy;
  int to = -1;
  int from = -1;
  Span src;
  Span dst;
};

struct Schedule {
  std::vector<Step> steps;
  int64_t scratch = 0;
  int64_t accum = 0;
};

struct ScheduleParams {
  Collective kind = Collective::kAllReduce;
  /// kAllReduce only. Never kAuto: callers resolve it against their
  /// topology first (sim::ResolveAllReduceAlgorithm).
  Algorithm algorithm = Algorithm::kRing;
  int world = 1;
  int rank = 0;
  /// Elements of the executor's type: the tensor for kAllReduce,
  /// kBroadcast and kReduce; each rank's input block for kAllGather and
  /// kGather; each rank's output chunk for kReduceScatter. kBarrier
  /// ignores it and moves data's first element as its token.
  int64_t numel = 0;
  int root = 0;
  /// kHierarchical's node size (ranks host-major); 0 = the default
  /// topology's 8 per host.
  int ranks_per_node = 0;
  /// fp16 all-reduce: every algorithm runs the one fp32-accumulate order
  /// (start at +0.0f, ranks ascending at rank 0, round once to half).
  bool fp32_accumulate = false;
};

Schedule MakeSchedule(const ScheduleParams& params);

/// Rejects a collective call a backend cannot run, before it is issued:
/// undefined or non-contiguous tensors, a root outside [0, world), output
/// sizes or dtypes that do not fit the input, and dtype x op pairs the
/// executors do not handle (float16 reduces only as an all-reduce sum).
/// `data` is the in-place tensor or the output (ignored on Gather's
/// non-roots); `input` is the separate input of AllGather / ReduceScatter
/// / Gather.
[[nodiscard]] Status CheckCollectiveArgs(Collective kind, int world, int rank,
                                         const Tensor& data,
                                         const Tensor& input, int root,
                                         ReduceOp op);

/// Where one rank's spans point: the caller's data and input, plus the
/// schedule's scratch (every element is written before it is read) and
/// zeroed accumulator, which the executor allocates.
template <typename T>
struct RankBuffers {
  T* data = nullptr;
  const T* input = nullptr;
  T* scratch = nullptr;
  float* accum = nullptr;

  const T* Read(const Span& span) const {
    switch (span.region) {
      case Region::kData:
        return data + span.offset;
      case Region::kInput:
        return input + span.offset;
      case Region::kScratch:
      case Region::kAccum:
        break;
    }
    return scratch + span.offset;
  }
  T* Write(const Span& span) const {
    return (span.region == Region::kData ? data : scratch) + span.offset;
  }
};

/// Runs elements [begin, end) of a kCombine or kCopy step. Each element's
/// operation is the same whatever the split, so any partition of
/// [0, step.dst.len) — any pool size — and any SIMD level gives the same
/// bits.
template <typename T>
void RunLocalStep(const Step& step, ReduceOp op,
                  const RankBuffers<T>& buffers, int64_t begin, int64_t end);

/// Whether `kind` combines values. Reductions run on the dtype's own
/// element type; the other collectives only move bytes.
inline bool Reduces(Collective kind) {
  return kind == Collective::kAllReduce || kind == Collective::kReduce ||
         kind == Collective::kReduceScatter;
}

/// Calls `fn(T{})` with the element type the executors run `kind` over
/// `dtype` with: uint8_t for byte moves, else the dtype's own (float16 as
/// its uint16_t bits).
template <typename F>
decltype(auto) VisitElementType(Collective kind, DType dtype, F&& fn) {
  if (!Reduces(kind)) return fn(uint8_t{});
  switch (dtype) {
    case DType::kFloat64:
      return fn(double{});
    case DType::kInt64:
      return fn(int64_t{});
    case DType::kUInt8:
      return fn(uint8_t{});
    case DType::kFloat16:
      return fn(uint16_t{});
    case DType::kFloat32:
      break;
  }
  return fn(float{});
}

}  // namespace ddpkit::comm

#endif  // DDPKIT_COMM_SCHEDULE_H_
