#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/module.h"

namespace perfbench {

/// One benchmark workload: the model, its data, and the DDP and launch
/// configuration it trains under. NOTES.md says why each one exists.
struct Workload {
  enum class Model { kResNetTiny, kMlp, kTransformerTiny };

  std::string name;
  Model model;
  int world;     // ranks, one OS process each
  int threads;   // intra-op pool size per rank (DDPKIT_NUM_THREADS)
  int64_t batch; // samples per rank per micro-batch
  /// Micro-batches per optimizer step; all but the last run under
  /// no_sync(), and each micro-batch's loss is scaled by 1/micro_batches.
  int micro_batches;
  size_t bucket_cap_bytes;
  std::string comm_hook;  // core::MakeCommHookByName name, "none" = AllReduce
  double lr;
  /// Untimed steps before calibration: caches warm, lazy set-up done.
  int warmup_steps;
};

/// SGD momentum, the same on every workload.
inline constexpr double kMomentum = 0.9;

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// The workload's model, initialised from `rng`.
std::shared_ptr<ddpkit::nn::Module> MakeModel(const Workload& w,
                                              ddpkit::Rng* rng);

/// The workload's synthetic dataset; Get returns inputs already shaped for
/// the model (flattened images for the MLP).
class Dataset {
 public:
  Dataset(const Workload& w, uint64_t seed);
  ddpkit::data::Batch Get(const std::vector<int64_t>& indices) const;
  int64_t size() const;

 private:
  bool flatten_;
  std::unique_ptr<ddpkit::data::SyntheticMnist> images_;
  std::unique_ptr<ddpkit::data::SyntheticTokens> tokens_;
};

/// Conv2d call shape (NCHW input, square kernel).
struct ConvShape {
  int64_t n, cin, h, w, cout, k, stride, pad;
  int64_t out_h() const { return (h + 2 * pad - k) / stride + 1; }
  int64_t out_w() const { return (w + 2 * pad - k) / stride + 1; }
  /// Multiply-adds ×2 of one call; the forward, input-gradient and
  /// weight-gradient kernels each perform this many.
  double flop() const {
    return 2.0 * n * cout * out_h() * out_w() * cin * k * k;
  }
};

/// Linear layer call shape: `m` rows through an in×out weight. Forward
/// (MatMulTransB), input gradient (MatMul) and weight gradient
/// (MatMulTransA) each perform 2·m·in·out flop.
struct LinearShape {
  int64_t m, in, out;
  double flop() const { return 2.0 * m * in * out; }
};

/// Every Conv2d / Linear call one micro-batch of the workload's model
/// makes, in forward order. (Attention score/value products inside
/// ops::Attention are not Linear calls and are not listed.)
std::vector<ConvShape> ConvShapes(const Workload& w);
std::vector<LinearShape> LinearShapes(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
