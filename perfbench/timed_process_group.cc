#include "timed_process_group.h"

#include <type_traits>
#include <utility>

namespace perfbench {

using ddpkit::Tensor;
using ddpkit::comm::ReduceOp;
using ddpkit::comm::WorkHandle;

namespace {

constexpr const char* kSpanNames[kNumCollectives] = {
    "comm.allreduce", "comm.broadcast",     "comm.allgather", "comm.reduce",
    "comm.reducescatter", "comm.gather", "comm.barrier"};

}  // namespace

const char* CollectiveName(Collective kind) {
  // Span name minus the "comm." prefix.
  return kSpanNames[static_cast<size_t>(kind)] + 5;
}

TimedProcessGroup::TimedProcessGroup(
    std::shared_ptr<ddpkit::comm::ProcessGroup> inner, SpanTrace* trace)
    : ProcessGroup(inner->rank(), inner->world()),
      inner_(std::move(inner)),
      trace_(trace) {}

template <typename Call>
auto TimedProcessGroup::Timed(Collective kind, uint64_t bytes, Call&& call) {
  const size_t k = static_cast<size_t>(kind);
  ScopedSpan span(trace_, kSpanNames[k]);
  const double start = MonoSeconds();
  auto finish = [&] {
    const double elapsed = MonoSeconds() - start;
    ddpkit::MutexLock lock(&mu_);
    counters_[k].calls += 1;
    counters_[k].bytes += bytes;
    counters_[k].seconds += elapsed;
  };
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    finish();
  } else {
    auto result = call();
    finish();
    return result;
  }
}

WorkHandle TimedProcessGroup::AllReduce(Tensor tensor, ReduceOp op) {
  return Timed(Collective::kAllReduce, tensor.nbytes(),
               [&] { return inner_->AllReduce(tensor, op); });
}

WorkHandle TimedProcessGroup::Broadcast(Tensor tensor, int root) {
  return Timed(Collective::kBroadcast, tensor.nbytes(),
               [&] { return inner_->Broadcast(tensor, root); });
}

WorkHandle TimedProcessGroup::AllGather(const Tensor& input, Tensor output) {
  return Timed(Collective::kAllGather, input.nbytes(),
               [&] { return inner_->AllGather(input, output); });
}

WorkHandle TimedProcessGroup::Reduce(Tensor tensor, int root, ReduceOp op) {
  return Timed(Collective::kReduce, tensor.nbytes(),
               [&] { return inner_->Reduce(tensor, root, op); });
}

WorkHandle TimedProcessGroup::ReduceScatter(const Tensor& input,
                                            Tensor output, ReduceOp op) {
  return Timed(Collective::kReduceScatter, input.nbytes(),
               [&] { return inner_->ReduceScatter(input, output, op); });
}

WorkHandle TimedProcessGroup::Gather(const Tensor& input, Tensor output,
                                     int root) {
  return Timed(Collective::kGather, input.nbytes(),
               [&] { return inner_->Gather(input, output, root); });
}

void TimedProcessGroup::Barrier() {
  Timed(Collective::kBarrier, 0, [&] { inner_->Barrier(); });
}

CollectiveCounters TimedProcessGroup::Snapshot() const {
  ddpkit::MutexLock lock(&mu_);
  return counters_;
}

CollectiveCounters Diff(const CollectiveCounters& after,
                        const CollectiveCounters& before) {
  CollectiveCounters out;
  for (size_t k = 0; k < kNumCollectives; ++k) {
    out[k].calls = after[k].calls - before[k].calls;
    out[k].bytes = after[k].bytes - before[k].bytes;
    out[k].seconds = after[k].seconds - before[k].seconds;
  }
  return out;
}

}  // namespace perfbench
