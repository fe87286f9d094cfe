// Storage contract: Tensor::Empty hands out uninitialized memory, usually
// a block another tensor of the same byte size just freed, so every kernel
// that returns an Empty output must write all of it. The poisoned-reuse
// sweep frees NaN-filled blocks of each output's byte size right before
// the kernel runs, so an element the kernel skips reads back as NaN bits,
// and memcmps the result against the same call on zero-filled blocks, at
// every SIMD level and at pool sizes 1, 2 and 8.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "comm/sim_world.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/compression.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

constexpr uint8_t kNanBytes = 0xff;  // float and half NaN, int64 -1
constexpr int kBlocksPerSize = 8;
constexpr int kPoolSizes[] = {1, 2, 8};

/// Frees `count` blocks of `bytes` bytes, every byte `fill`, onto the
/// storage free list, so the next `count` allocations of that size get them.
/// Adds the blocks' addresses to `addresses` when given.
void FreeFilledBlocks(size_t bytes, uint8_t fill, int count,
                      std::set<const uint8_t*>* addresses = nullptr) {
  ASSERT_LE(bytes, Storage::kMaxCachedBlockBytes)
      << "a block this large bypasses the free list and cannot be poisoned";
  std::vector<Tensor> blocks;
  for (int i = 0; i < count; ++i) {
    Tensor block =
        Tensor::Empty({static_cast<int64_t>(bytes)}, DType::kUInt8);
    std::memset(block.data<uint8_t>(), fill, bytes);
    if (addresses != nullptr) addresses->insert(block.data<uint8_t>());
    blocks.push_back(block);
  }
}

class LevelAndPoolGuard {
 public:
  ~LevelAndPoolGuard() {
    vec::SetLevelForTesting(level_);
    ThreadPool::SetNumThreads(threads_);
  }

 private:
  vec::Level level_ = vec::ActiveLevel();
  int threads_ = ThreadPool::Global().num_threads();
};

std::vector<vec::Level> AvailableLevels() {
  std::vector<vec::Level> levels = {vec::Level::kScalar};
  if (vec::DetectedLevel() >= vec::Level::kAvx2) {
    levels.push_back(vec::Level::kAvx2);
  }
  if (vec::DetectedLevel() >= vec::Level::kAvx512) {
    levels.push_back(vec::Level::kAvx512);
  }
  return levels;
}

using Outputs = std::function<std::vector<Tensor>()>;

/// Every defined output's bytes, concatenated.
std::vector<uint8_t> Bytes(const std::vector<Tensor>& outputs) {
  std::vector<uint8_t> bytes;
  for (const Tensor& t : outputs) {
    if (!t.defined()) continue;
    EXPECT_TRUE(t.is_contiguous());
    const uint8_t* p = t.data<uint8_t>();
    bytes.insert(bytes.end(), p, p + t.nbytes());
  }
  return bytes;
}

/// Runs `fn` on freshly freed blocks filled with `fill`, kBlocksPerSize of
/// them for each entry of `sizes`; sets `*reused` to whether every output
/// landed in one of them.
std::vector<uint8_t> RunOnFilledBlocks(const std::vector<size_t>& sizes,
                                       uint8_t fill, const Outputs& fn,
                                       bool* reused) {
  std::map<size_t, int> blocks_per_size;
  for (const size_t bytes : sizes) blocks_per_size[bytes] += kBlocksPerSize;
  std::set<const uint8_t*> addresses;
  for (const auto& [bytes, count] : blocks_per_size) {
    FreeFilledBlocks(bytes, fill, count, &addresses);
  }
  const std::vector<Tensor> outputs = fn();
  *reused = true;
  for (const Tensor& t : outputs) {
    if (t.defined() && addresses.count(t.data<uint8_t>()) == 0) {
      *reused = false;
    }
  }
  return Bytes(outputs);
}

/// Empty when `fn` returns the same bytes on reused NaN-filled blocks as on
/// zero-filled ones at every SIMD level and pool size; otherwise names the
/// first configuration that differs, or one where an output did not land
/// in a poisoned block (so the run proved nothing). The poisoned sizes are
/// those of fn's outputs plus `extra_sizes` (temporaries that feed an
/// output).
std::string PoisonedReuseMismatch(const Outputs& fn,
                                  std::vector<size_t> extra_sizes = {}) {
  LevelAndPoolGuard guard;
  std::vector<size_t> sizes = std::move(extra_sizes);
  for (const Tensor& t : fn()) {
    if (t.defined()) sizes.push_back(t.nbytes());
  }
  for (const vec::Level level : AvailableLevels()) {
    vec::SetLevelForTesting(level);
    for (const int threads : kPoolSizes) {
      ThreadPool::SetNumThreads(threads);
      const std::string where = std::string(" at level ") +
                                vec::LevelName(level) + ", " +
                                std::to_string(threads) + " threads";
      bool reused = false;
      const std::vector<uint8_t> fresh =
          RunOnFilledBlocks(sizes, 0, fn, &reused);
      const std::vector<uint8_t> poisoned =
          RunOnFilledBlocks(sizes, kNanBytes, fn, &reused);
      if (!reused) return "an output missed the poisoned blocks" + where;
      if (fresh != poisoned) return "differs" + where;
    }
  }
  return "";
}

/// The backward function recorded for `out`, applied to `grad_out`.
Outputs Backward(const Tensor& out, const Tensor& grad_out) {
  std::shared_ptr<autograd::Node> node = autograd::MaybeMeta(out)->grad_fn;
  return [node, grad_out] { return node->Apply({grad_out}); };
}

Tensor Leaf(std::vector<int64_t> shape, Rng* rng) {
  Tensor t = Tensor::Randn(std::move(shape), rng);
  t.set_requires_grad(true);
  return t;
}

// ---- Factories and reuse ----------------------------------------------------

TEST(TensorStorageTest, FreedBlockOfTheSameSizeIsReused) {
  FreeFilledBlocks(96, 0xab, 1);
  Tensor t = Tensor::Empty({24}, DType::kFloat32);
  const uint8_t* p = t.data<uint8_t>();
  for (size_t i = 0; i < t.nbytes(); ++i) ASSERT_EQ(0xab, p[i]) << i;
}

TEST(TensorStorageTest, FactoriesWriteEveryElementOfAPoisonedBlock) {
  for (const DType dtype : {DType::kFloat32, DType::kFloat64, DType::kInt64,
                            DType::kUInt8, DType::kFloat16}) {
    const std::vector<int64_t> shape = {3, 5};
    const size_t bytes = 15 * ItemSize(dtype);
    FreeFilledBlocks(bytes, kNanBytes, 1);
    const Tensor zeros = Tensor::Zeros(shape, dtype);
    FreeFilledBlocks(bytes, kNanBytes, 1);
    const Tensor ones = Tensor::Ones(shape, dtype);
    FreeFilledBlocks(bytes, kNanBytes, 1);
    const Tensor full = Tensor::Full(shape, 3.0, dtype);
    const std::vector<uint8_t> all_zero(bytes, 0);
    EXPECT_EQ(0, std::memcmp(all_zero.data(), zeros.data<uint8_t>(), bytes))
        << DTypeName(dtype);
    for (int64_t i = 0; i < 15; ++i) {
      ASSERT_EQ(1.0, ones.FlatAt(i)) << DTypeName(dtype) << " " << i;
      ASSERT_EQ(3.0, full.FlatAt(i)) << DTypeName(dtype) << " " << i;
    }
  }
}

TEST(TensorStorageTest, ZeroClearsOnlyTheView) {
  Tensor t = Tensor::Full({4, 6}, 2.0);
  Tensor column_block = t.Narrow(1, 1, 3);  // non-contiguous
  column_block.Zero();
  Tensor rows = t.Narrow(0, 3, 1);  // contiguous
  rows.Zero();
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 6; ++c) {
      const bool cleared = r == 3 || (c >= 1 && c <= 3);
      EXPECT_EQ(cleared ? 0.0 : 2.0, t.At({r, c})) << r << "," << c;
    }
  }
}

TEST(TensorStorageTest, ConcurrentAllocateAndFreeKeepBlocksPrivate) {
  // Shared sizes, so threads hand blocks to one another through the free
  // list; a block handed to two live tensors at once shows up as a tag
  // overwritten by another thread. The last size bypasses the free list.
  constexpr int64_t kMax = Storage::kMaxCachedBlockBytes;
  const int64_t kSizes[] = {24, 200, 4096, 65536, kMax, kMax + 4096};
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<int> corrupted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &kSizes, &corrupted] {
      Rng rng(static_cast<uint64_t>(100 + t));
      struct Live {
        Tensor block;
        uint8_t tag;
      };
      std::vector<Live> live;
      for (int i = 0; i < kIters; ++i) {
        // The two large sizes come up one iteration in eight.
        const int64_t n =
            kSizes[i % 8 == 0 ? 4 + rng.UniformInt(2) : rng.UniformInt(4)];
        const uint8_t tag = static_cast<uint8_t>(t * 31 + i);
        Tensor block = Tensor::Empty({n}, DType::kUInt8);
        std::memset(block.data<uint8_t>(), tag, static_cast<size_t>(n));
        live.push_back({block, tag});
        if (live.size() < 6) continue;
        const Live& oldest = live.front();
        const uint8_t* p = oldest.block.data<uint8_t>();
        const int64_t size = oldest.block.numel();
        for (int64_t j = 0; j < size; j += 509) {
          if (p[j] != oldest.tag) corrupted.fetch_add(1);
        }
        if (p[size - 1] != oldest.tag) corrupted.fetch_add(1);
        live.erase(live.begin());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(0, corrupted.load());
}

// ---- The sweep's own check --------------------------------------------------

/// Copies a [rows, cols] matrix but, as a broken kernel would, never writes
/// the first output row.
Tensor CopySkippingFirstRow(const Tensor& a) {
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor out = Tensor::Empty({rows, cols});
  std::memcpy(out.data<float>() + cols, a.data<float>() + cols,
              static_cast<size_t>((rows - 1) * cols) * sizeof(float));
  return out;
}

TEST(TensorStoragePoisonTest, SweepCatchesAKernelThatSkipsItsFirstRow) {
  Rng rng(1);
  const Tensor a = Tensor::Randn({6, 10}, &rng);
  EXPECT_NE("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{CopySkippingFirstRow(a)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{a.Clone()};
            }));
}

// ---- The sweep --------------------------------------------------------------

TEST(TensorStoragePoisonTest, MatMulKernels) {
  Rng rng(2);
  const Tensor a = Tensor::Randn({17, 33}, &rng);
  const Tensor b = Tensor::Randn({33, 9}, &rng);
  const Tensor at = Tensor::Randn({33, 17}, &rng);
  const Tensor bt = Tensor::Randn({9, 33}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::MatMul(a, b)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::MatMulTransA(at, b)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::MatMulTransB(a, bt)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::Transpose2D(a)};
            }));
}

TEST(TensorStoragePoisonTest, Conv2dForwardAndBothBackward) {
  // ResNetTiny's stride-1 and stride-2 convolutions at a small batch.
  struct Case {
    int64_t cin, cout, hw, stride;
  };
  for (const Case c : {Case{8, 8, 28, 1}, Case{8, 16, 28, 2},
                       Case{16, 16, 7, 1}}) {
    Rng rng(3);
    const kernels::Conv2dArgs args{c.stride, 1};
    const Tensor input = Tensor::Randn({2, c.cin, c.hw, c.hw}, &rng);
    const Tensor weight = Tensor::Randn({c.cout, c.cin, 3, 3}, &rng);
    const Tensor out = kernels::Conv2d(input, weight, args);
    const Tensor grad_out = Tensor::Randn(out.shape(), &rng);
    const std::string what = "cin " + std::to_string(c.cin) + " stride " +
                             std::to_string(c.stride);
    EXPECT_EQ("", PoisonedReuseMismatch([&] {
                return std::vector<Tensor>{
                    kernels::Conv2d(input, weight, args)};
              }))
        << what;
    EXPECT_EQ("", PoisonedReuseMismatch([&] {
                return std::vector<Tensor>{kernels::Conv2dBackwardInput(
                    grad_out, weight, input.shape(), args)};
              }))
        << what;
    EXPECT_EQ("", PoisonedReuseMismatch([&] {
                return std::vector<Tensor>{kernels::Conv2dBackwardWeight(
                    grad_out, input, weight.shape(), args)};
              }))
        << what;
  }
}

TEST(TensorStoragePoisonTest, PoolingForwardAndBackward) {
  Rng rng(4);
  const Tensor input = Tensor::Randn({2, 8, 14, 14}, &rng);
  const Tensor grad_half = Tensor::Randn({2, 8, 7, 7}, &rng);
  const Tensor grad_global = Tensor::Randn({2, 8}, &rng);
  Tensor argmax;
  kernels::MaxPool2x2(input, &argmax);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              Tensor indices;
              Tensor out = kernels::MaxPool2x2(input, &indices);
              return std::vector<Tensor>{out, indices};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::MaxPool2x2Backward(
                  grad_half, argmax, input.shape())};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::AvgPool2x2(input)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{
                  kernels::AvgPool2x2Backward(grad_half, input.shape())};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::GlobalAvgPool(input)};
            }));
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{
                  kernels::GlobalAvgPoolBackward(grad_global, input.shape())};
            }));
}

TEST(TensorStoragePoisonTest, BatchNormForwardAndBackward) {
  Rng rng(5);
  const Tensor input = Leaf({2, 8, 14, 14}, &rng);
  const Tensor gamma = Leaf({8}, &rng);
  const Tensor beta = Leaf({8}, &rng);
  const Tensor grad_out = Tensor::Randn(input.shape(), &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              ops::BatchNormResult r =
                  ops::BatchNorm2d(input, gamma, beta, 1e-5);
              return std::vector<Tensor>{r.output, r.batch_mean, r.batch_var};
            }));
  const Tensor out = ops::BatchNorm2d(input, gamma, beta, 1e-5).output;
  EXPECT_EQ("", PoisonedReuseMismatch(Backward(out, grad_out)));

  const Tensor mean = Tensor::Randn({8}, &rng);
  const Tensor var = Tensor::Rand({8}, &rng, 0.5, 2.0);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{ops::BatchNorm2dInference(
                  input, gamma, beta, mean, var, 1e-5)};
            }));
  const Tensor inference =
      ops::BatchNorm2dInference(input, gamma, beta, mean, var, 1e-5);
  EXPECT_EQ("", PoisonedReuseMismatch(Backward(inference, grad_out)));
}

TEST(TensorStoragePoisonTest, LayerNormForwardAndBackward) {
  Rng rng(6);
  const Tensor input = Leaf({2, 5, 24}, &rng);
  const Tensor gamma = Leaf({24}, &rng);
  const Tensor beta = Leaf({24}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{
                  ops::LayerNorm(input, gamma, beta, 1e-5)};
            }));
  const Tensor out = ops::LayerNorm(input, gamma, beta, 1e-5);
  EXPECT_EQ("", PoisonedReuseMismatch(
                    Backward(out, Tensor::Randn(out.shape(), &rng))));
}

TEST(TensorStoragePoisonTest, AttentionForwardAndBackward) {
  Rng rng(7);
  const Tensor q = Leaf({2, 6, 8}, &rng);
  const Tensor k = Leaf({2, 6, 8}, &rng);
  const Tensor v = Leaf({2, 6, 8}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{ops::Attention(q, k, v)};
            }));
  const Tensor out = ops::Attention(q, k, v);
  EXPECT_EQ("", PoisonedReuseMismatch(
                    Backward(out, Tensor::Randn(out.shape(), &rng))));
}

TEST(TensorStoragePoisonTest, MultiHeadAttentionForwardAndBackward) {
  Rng rng(13);
  const Tensor q = Leaf({3, 5, 12}, &rng);
  const Tensor k = Leaf({3, 5, 12}, &rng);
  const Tensor v = Leaf({3, 5, 12}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              Tensor probs;
              Tensor out = kernels::Attention(q, k, v, 4, &probs);
              return std::vector<Tensor>{out, probs};
            }));
  const Tensor out = ops::Attention(q, k, v, 4);
  EXPECT_EQ("", PoisonedReuseMismatch(
                    Backward(out, Tensor::Randn(out.shape(), &rng))));
}

TEST(TensorStoragePoisonTest, SoftmaxAndCrossEntropy) {
  Rng rng(8);
  const Tensor logits = Leaf({7, 11}, &rng);
  const Tensor targets =
      Tensor::FromVectorInt64({0, 3, 10, 5, 5, 1, 9}, {7});
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{kernels::Softmax(logits),
                                         kernels::LogSoftmax(logits),
                                         kernels::ArgMaxRows(logits)};
            }));
  const Tensor loss = ops::CrossEntropyLoss(logits, targets);
  EXPECT_EQ("", PoisonedReuseMismatch(Backward(loss, Tensor::Full({1}, 0.5))));
}

TEST(TensorStoragePoisonTest, EmbeddingForwardAndBackward) {
  Rng rng(9);
  const Tensor table = Leaf({10, 6}, &rng);
  const Tensor indices = Tensor::FromVectorInt64({4, 0, 9, 4, 2}, {5});
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{
                  kernels::EmbeddingLookup(indices, table)};
            }));
  const Tensor out = ops::Embedding(indices, table);
  EXPECT_EQ("", PoisonedReuseMismatch(
                    Backward(out, Tensor::Randn(out.shape(), &rng))));
}

TEST(TensorStoragePoisonTest, ConcatSliceAndTile) {
  Rng rng(10);
  const Tensor a = Leaf({3, 4, 5}, &rng);
  const Tensor b = Leaf({3, 4, 2}, &rng);
  const Tensor row = Leaf({4, 5}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{ops::ConcatLastDim({a, b}),
                                         ops::SliceLastDim(a, 1, 3),
                                         ops::TileRows(row, 3)};
            }));
  const Tensor concat = ops::ConcatLastDim({a, b});
  EXPECT_EQ("", PoisonedReuseMismatch(
                    Backward(concat, Tensor::Randn(concat.shape(), &rng))));
}

TEST(TensorStoragePoisonTest, ElementwiseAndRowKernels) {
  Rng rng(11);
  const Tensor a = Tensor::Randn({9, 13}, &rng);
  const Tensor b = Tensor::Rand({9, 13}, &rng, 0.5, 2.0);
  const Tensor bias = Tensor::Randn({13}, &rng);
  EXPECT_EQ("", PoisonedReuseMismatch([&] {
              return std::vector<Tensor>{
                  kernels::Add(a, b),      kernels::Sub(a, b),
                  kernels::Mul(a, b),      kernels::Div(a, b),
                  kernels::Scale(a, 0.5),  kernels::AddScalar(a, 1.5),
                  kernels::Neg(a),         kernels::Exp(a),
                  kernels::Log(b),         kernels::Sqrt(b),
                  kernels::Relu(a),        kernels::ReluBackward(b, a),
                  kernels::Gelu(a),        kernels::GeluBackward(b, a),
                  kernels::Sigmoid(a),     kernels::Tanh(a),
                  kernels::AddRowBroadcast(a, bias),
                  kernels::SumRows(a),     kernels::SumAll(a),
                  kernels::MeanAll(a),     a.Cast(DType::kFloat64),
                  a.Cast(DType::kFloat16)};
            }));
}

TEST(TensorStoragePoisonTest, Fp16HookPayload) {
  constexpr int64_t kNumel = 1001;
  Rng rng(12);
  const Tensor gradients = Tensor::Randn({kNumel}, &rng);
  std::string mismatch = "not run";
  comm::SimWorld::Run(1, [&](comm::SimWorld::RankContext& ctx) {
    core::Fp16CompressionHook hook;
    mismatch = PoisonedReuseMismatch(
        [&] {
          Tensor bucket = gradients.Clone();
          core::CommHook::Launched launched =
              hook.Launch(*ctx.process_group, bucket, 0);
          for (const comm::WorkHandle& work : launched.works) {
            EXPECT_TRUE(work->Wait(ctx.clock, 30.0).ok());
          }
          EXPECT_TRUE(launched.finalize().ok());
          return std::vector<Tensor>{bucket};
        },
        /*extra_sizes=*/{kNumel * sizeof(uint16_t)});
  });
  EXPECT_EQ("", mismatch);
}

}  // namespace
}  // namespace ddpkit
