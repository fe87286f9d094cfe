#ifndef PERFBENCH_TIMED_PROCESS_GROUP_H_
#define PERFBENCH_TIMED_PROCESS_GROUP_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "comm/process_group.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "span_trace.h"

namespace perfbench {

enum class Collective {
  kAllReduce,
  kBroadcast,
  kAllGather,
  kReduce,
  kReduceScatter,
  kGather,
  kBarrier,
};
inline constexpr size_t kNumCollectives = 7;
const char* CollectiveName(Collective kind);  // "allreduce", ...

struct CollectiveCounter {
  uint64_t calls = 0;
  /// Payload this rank handed to the call: the in-place tensor for
  /// AllReduce/Broadcast/Reduce, the input for AllGather/ReduceScatter/
  /// Gather, 0 for Barrier.
  uint64_t bytes = 0;
  /// Wall time spent inside the call. ProcessGroupTcp runs a collective
  /// synchronously in the calling thread, so this is the collective's wire
  /// time; an asynchronous backend would show only its issue cost here.
  double seconds = 0.0;
};
using CollectiveCounters = std::array<CollectiveCounter, kNumCollectives>;

/// comm::ProcessGroup decorator: forwards every collective, store(),
/// generation(), superseded_by() and AbortGroup() to the wrapped group
/// (ProcessGroupTcp in the benchmark) and counts calls, bytes and wall time
/// per collective kind. With an enabled SpanTrace it also records one
/// "comm.<kind>" span per call.
class TimedProcessGroup : public ddpkit::comm::ProcessGroup {
 public:
  TimedProcessGroup(std::shared_ptr<ddpkit::comm::ProcessGroup> inner,
                    SpanTrace* trace);

  [[nodiscard]] ddpkit::comm::WorkHandle AllReduce(
      ddpkit::Tensor tensor, ddpkit::comm::ReduceOp op) override;
  [[nodiscard]] ddpkit::comm::WorkHandle Broadcast(ddpkit::Tensor tensor,
                                                   int root) override;
  [[nodiscard]] ddpkit::comm::WorkHandle AllGather(
      const ddpkit::Tensor& input, ddpkit::Tensor output) override;
  [[nodiscard]] ddpkit::comm::WorkHandle Reduce(
      ddpkit::Tensor tensor, int root, ddpkit::comm::ReduceOp op) override;
  [[nodiscard]] ddpkit::comm::WorkHandle ReduceScatter(
      const ddpkit::Tensor& input, ddpkit::Tensor output,
      ddpkit::comm::ReduceOp op) override;
  [[nodiscard]] ddpkit::comm::WorkHandle Gather(const ddpkit::Tensor& input,
                                                ddpkit::Tensor output,
                                                int root) override;
  void Barrier() override;

  ddpkit::sim::VirtualClock* clock() override { return inner_->clock(); }
  ddpkit::comm::Store* store() override { return inner_->store(); }
  std::string backend_name() const override {
    return "timed[" + inner_->backend_name() + "]";
  }
  uint64_t generation() const override { return inner_->generation(); }
  uint64_t superseded_by() const override { return inner_->superseded_by(); }
  void AbortGroup(uint64_t new_generation,
                  const std::string& reason) override {
    inner_->AbortGroup(new_generation, reason);
  }

  /// Running totals since construction.
  CollectiveCounters Snapshot() const EXCLUDES(mu_);

 private:
  template <typename Call>
  auto Timed(Collective kind, uint64_t bytes, Call&& call);

  std::shared_ptr<ddpkit::comm::ProcessGroup> inner_;
  SpanTrace* trace_;
  mutable ddpkit::Mutex mu_;
  CollectiveCounters counters_ GUARDED_BY(mu_);
};

/// `after - before`, kind by kind.
CollectiveCounters Diff(const CollectiveCounters& after,
                        const CollectiveCounters& before);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_PROCESS_GROUP_H_
