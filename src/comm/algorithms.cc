#include "comm/algorithms.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "sim/topology.h"

// ddplint: allow-file(check-in-comm) data-plane internal invariants: every
// Run* entry is reached only after ProcessGroupSim's Contribute validated
// cross-rank collective signatures and converted mismatches into typed
// kShapeMismatch failures, so these checks guard unreachable-by-contract
// states (memory-safety bounds), not recoverable runtime conditions.

namespace ddpkit::comm {

const char* AlgorithmName(Algorithm algorithm) {
  return sim::CollectiveAlgorithmName(algorithm);
}

namespace {

/// Elements per block when a batch is split across the intra-op pool.
constexpr int64_t kStepGrain = 16384;

/// One element-wise job: a local step, or a message as a copy from a
/// sender's span (input) into a receiver's (data).
template <typename T>
struct Job {
  Step step;
  RankBuffers<T> buffers;
};

/// Runs independent jobs as one ParallelFor over kStepGrain blocks, so a
/// round of small steps costs one pool dispatch, not one per step.
template <typename T>
void RunJobs(const std::vector<Job<T>>& jobs, ReduceOp op) {
  std::vector<std::pair<size_t, int64_t>> blocks;  // (job, first element)
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (int64_t b = 0; b < jobs[j].step.dst.len; b += kStepGrain) {
      blocks.emplace_back(j, b);
    }
  }
  ParallelFor(0, static_cast<int64_t>(blocks.size()), 1,
              [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const auto [j, b] = blocks[static_cast<size_t>(i)];
      const Job<T>& job = jobs[j];
      RunLocalStep(job.step, op, job.buffers, b,
                   std::min(job.step.dst.len, b + kStepGrain));
    }
  });
}

bool Overlap(const Span& a, const Span& b) {
  return a.region == b.region && a.offset < b.offset + b.len &&
         b.offset < a.offset + a.len;
}

/// Whether two local steps of one rank can run in either order.
bool Disjoint(const Step& a, const Step& b) {
  return !Overlap(a.dst, b.dst) && !Overlap(a.dst, b.src) &&
         !Overlap(a.src, b.dst);
}

/// Walks every rank's schedule in the calling thread, in rounds. First,
/// every receive whose peer's current step sends to it is delivered: one
/// copy, straight from the sender's span into the receiver's. A wire step
/// whose halves are all delivered completes. Then every rank runs its local
/// steps up to its next wire step, in batches of steps that touch disjoint
/// bytes. A sender cannot pass an undelivered send, so the copied bytes are
/// the ones it held at that step — the blocking-socket semantics the
/// schedules are written for — and no two jobs of a batch touch the same
/// bytes, so the result does not depend on the order or the pool size.
template <typename T>
void Execute(const ScheduleParams& params, ReduceOp op,
             const std::vector<T*>& data,
             const std::vector<const T*>& inputs) {
  const size_t world = static_cast<size_t>(params.world);
  std::vector<Schedule> schedules;
  int64_t scratch_total = 0;
  int64_t accum_total = 0;
  for (size_t r = 0; r < world; ++r) {
    ScheduleParams mine = params;
    mine.rank = static_cast<int>(r);
    schedules.push_back(MakeSchedule(mine));
    scratch_total += schedules.back().scratch;
    accum_total += schedules.back().accum;
  }
  // One allocation for every rank's scratch: a per-rank allocation each
  // call would be returned to the OS and faulted back in.
  const auto scratch =
      std::make_unique_for_overwrite<T[]>(static_cast<size_t>(scratch_total));
  std::vector<float> accum(static_cast<size_t>(accum_total));
  std::vector<RankBuffers<T>> buffers;
  buffers.reserve(world);
  int64_t scratch_at = 0;
  int64_t accum_at = 0;
  for (size_t r = 0; r < world; ++r) {
    buffers.push_back({data[r], inputs.empty() ? nullptr : inputs[r],
                       scratch.get() + scratch_at, accum.data() + accum_at});
    scratch_at += schedules[r].scratch;
    accum_at += schedules[r].accum;
  }
  std::vector<size_t> pc(world, 0);
  std::vector<char> sent(world, 0);
  std::vector<char> received(world, 0);
  auto current = [&](size_t r) -> const Step* {
    const std::vector<Step>& steps = schedules[r].steps;
    return pc[r] < steps.size() ? &steps[pc[r]] : nullptr;
  };
  auto is_local = [](const Step* s) {
    return s->kind == StepKind::kCombine || s->kind == StepKind::kCopy;
  };
  auto sends = [](const Step* s) {
    return s->kind == StepKind::kSend || s->kind == StepKind::kExchange;
  };
  auto recvs = [](const Step* s) {
    return s->kind == StepKind::kRecv || s->kind == StepKind::kExchange;
  };
  std::vector<Job<T>> jobs;
  for (;;) {
    jobs.clear();
    for (size_t r = 0; r < world; ++r) {
      const Step* step = current(r);
      if (step == nullptr || !recvs(step) || received[r]) continue;
      const size_t peer = static_cast<size_t>(step->from);
      const Step* theirs = current(peer);
      if (theirs == nullptr || !sends(theirs) ||
          theirs->to != static_cast<int>(r) || sent[peer]) {
        continue;
      }
      const int64_t len = step->dst.len;
      DDPKIT_CHECK_EQ(theirs->src.len, len);
      jobs.push_back({{StepKind::kCopy, -1, -1, {Region::kInput, 0, len},
                       {Region::kData, 0, len}},
                      {buffers[r].Write(step->dst),
                       buffers[peer].Read(theirs->src)}});
      sent[peer] = 1;
      received[r] = 1;
    }
    RunJobs(jobs, op);
    bool progress = !jobs.empty();
    bool finished = true;
    for (size_t r = 0; r < world; ++r) {
      const Step* step = current(r);
      if (step == nullptr) continue;
      finished = false;
      if (is_local(step) || (sends(step) && !sent[r]) ||
          (recvs(step) && !received[r])) {
        continue;
      }
      sent[r] = 0;
      received[r] = 0;
      ++pc[r];
      progress = true;
    }
    if (finished) return;
    for (;;) {
      jobs.clear();
      for (size_t r = 0; r < world; ++r) {
        // This rank's next local steps, as long as they touch disjoint
        // bytes (a chunked ring's per-chunk combines, packs, unpacks).
        const size_t first = pc[r];
        while (const Step* step = current(r)) {
          if (!is_local(step)) break;
          bool independent = true;
          for (size_t i = first; i < pc[r]; ++i) {
            independent =
                independent && Disjoint(schedules[r].steps[i], *step);
          }
          if (!independent) break;
          jobs.push_back({*step, buffers[r]});
          ++pc[r];
        }
      }
      if (jobs.empty()) break;
      RunJobs(jobs, op);
      progress = true;
    }
    DDPKIT_CHECK(progress) << "collective schedule deadlocked";
  }
}

/// Runs `p` (numel in elements of `dtype`) over per-rank tensors; an
/// undefined data tensor is a rank whose data the collective never touches.
void RunTensors(ScheduleParams p, ReduceOp op, DType dtype,
                const std::vector<Tensor>& data,
                const std::vector<Tensor>& inputs) {
  p.world = static_cast<int>(std::max(data.size(), inputs.size()));
  if (!Reduces(p.kind)) p.numel *= static_cast<int64_t>(ItemSize(dtype));
  p.fp32_accumulate = dtype == DType::kFloat16;
  VisitElementType(p.kind, dtype, [&](auto tag) {
    using T = decltype(tag);
    std::vector<T*> out;
    for (const Tensor& t : data) {
      out.push_back(t.defined() ? const_cast<Tensor&>(t).data<T>() : nullptr);
    }
    std::vector<const T*> in;
    for (const Tensor& t : inputs) in.push_back(t.data<T>());
    Execute<T>(p, op, out, in);
  });
}

void CheckSameShape(const std::vector<Tensor>& tensors, int64_t n,
                    DType dtype) {
  for (const Tensor& t : tensors) {
    DDPKIT_CHECK(t.is_contiguous());
    DDPKIT_CHECK_EQ(t.numel(), n);
    DDPKIT_CHECK(t.dtype() == dtype);
  }
}

}  // namespace

template <typename T>
void RunAllReduceRaw(Algorithm algorithm, ReduceOp op,
                     const std::vector<T*>& bufs, int64_t n,
                     int ranks_per_node) {
  DDPKIT_CHECK(!bufs.empty());
  DDPKIT_CHECK(n >= 0);
  if (bufs.size() == 1 || n == 0) return;
  const int world = static_cast<int>(bufs.size());
  Execute<T>({.kind = Collective::kAllReduce,
              .algorithm = sim::ResolveAllReduceAlgorithm(
                  algorithm, static_cast<size_t>(n) * sizeof(T), world,
                  sim::Topology()),
              .world = world,
              .numel = n,
              .ranks_per_node = ranks_per_node},
             op, bufs, {});
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
  CheckSameShape(tensors, n, dtype);
  DDPKIT_CHECK(dtype != DType::kFloat16 || op == ReduceOp::kSum)
      << "fp16 all-reduce supports sum only";
  if (tensors.size() == 1 || n == 0) return;
  const int world = static_cast<int>(tensors.size());
  RunTensors({.kind = Collective::kAllReduce,
              .algorithm = sim::ResolveAllReduceAlgorithm(
                  algorithm, static_cast<size_t>(n) * ItemSize(dtype), world,
                  sim::Topology()),
              .numel = n,
              .ranks_per_node = ranks_per_node},
             op, dtype, tensors, {});
}

void RunBroadcast(const std::vector<Tensor>& tensors, int root) {
  DDPKIT_CHECK(!tensors.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(tensors.size()));
  const Tensor& src = tensors[static_cast<size_t>(root)];
  CheckSameShape(tensors, src.numel(), src.dtype());
  RunTensors({.kind = Collective::kBroadcast, .numel = src.numel(),
              .root = root},
             ReduceOp::kSum, src.dtype(), tensors, {});
}

void RunReduce(ReduceOp op, const std::vector<Tensor>& tensors, int root) {
  DDPKIT_CHECK(!tensors.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(tensors.size()));
  const Tensor& dest = tensors[static_cast<size_t>(root)];
  CheckSameShape(tensors, dest.numel(), dest.dtype());
  DDPKIT_CHECK(dest.dtype() != DType::kFloat16) << "Reduce of float16";
  RunTensors({.kind = Collective::kReduce, .numel = dest.numel(),
              .root = root},
             op, dest.dtype(), tensors, {});
}

void RunReduceScatter(ReduceOp op, const std::vector<Tensor>& inputs,
                      const std::vector<Tensor>& outputs) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK_EQ(inputs.size(), outputs.size());
  const DType dtype = inputs[0].dtype();
  const int64_t chunk = outputs[0].numel();
  CheckSameShape(inputs, chunk * static_cast<int64_t>(inputs.size()), dtype);
  CheckSameShape(outputs, chunk, dtype);
  DDPKIT_CHECK(dtype != DType::kFloat16) << "ReduceScatter of float16";
  RunTensors({.kind = Collective::kReduceScatter, .numel = chunk}, op, dtype,
             outputs, inputs);
}

void RunGather(const std::vector<Tensor>& inputs, Tensor output_root,
               int root) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK(root >= 0 && root < static_cast<int>(inputs.size()));
  const Tensor& first = inputs[0];
  CheckSameShape(inputs, first.numel(), first.dtype());
  CheckSameShape({output_root},
                 first.numel() * static_cast<int64_t>(inputs.size()),
                 first.dtype());
  std::vector<Tensor> outputs(inputs.size());
  outputs[static_cast<size_t>(root)] = output_root;
  RunTensors({.kind = Collective::kGather, .numel = first.numel(),
              .root = root},
             ReduceOp::kSum, first.dtype(), outputs, inputs);
}

void RunAllGather(const std::vector<Tensor>& inputs,
                  const std::vector<Tensor>& outputs) {
  DDPKIT_CHECK(!inputs.empty());
  DDPKIT_CHECK_EQ(inputs.size(), outputs.size());
  const Tensor& first = inputs[0];
  CheckSameShape(inputs, first.numel(), first.dtype());
  CheckSameShape(outputs,
                 first.numel() * static_cast<int64_t>(inputs.size()),
                 first.dtype());
  RunTensors({.kind = Collective::kAllGather, .numel = first.numel()},
             ReduceOp::kSum, first.dtype(), outputs, inputs);
}

}  // namespace ddpkit::comm
