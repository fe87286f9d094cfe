// ops::Attention(q, k, v, num_heads) against the per-head path it replaced
// in TransformerLayer: per head, SliceLastDim of q, k and v, the
// single-head attention op kept verbatim below as ReferenceAttention, and
// one ConcatLastDim of the heads. The fused op must reproduce that path's
// output and its q/k/v gradients bit for bit, at every SIMD level and pool
// size.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/engine.h"
#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vec.h"
#include "tensor/tensor_ops.h"

namespace ddpkit {
namespace {

/// A backward node that runs a captured closure.
class ClosureNode : public autograd::Node {
 public:
  using Fn = std::function<std::vector<Tensor>(std::vector<Tensor>)>;
  explicit ClosureNode(Fn fn) : fn_(std::move(fn)) {}

  std::vector<Tensor> Apply(std::vector<Tensor> grad_outputs) override {
    autograd::NoGradGuard guard;
    return fn_(std::move(grad_outputs));
  }
  std::string name() const override { return "ReferenceAttentionBackward"; }

 private:
  Fn fn_;
};

/// Single-head scaled-dot-product attention over [B, S, D], one batch row
/// at a time through the 2-D kernels: the op as it was before the fused
/// multi-head kernel.
Tensor ReferenceAttention(const Tensor& q, const Tensor& k, const Tensor& v) {
  DDPKIT_CHECK_EQ(q.dim(), 3);
  DDPKIT_CHECK(q.shape() == k.shape() && q.shape() == v.shape());
  const int64_t batch = q.size(0), seq = q.size(1), dim = q.size(2);
  const double scale = 1.0 / std::sqrt(static_cast<double>(dim));

  Tensor out = Tensor::Empty(q.shape());
  Tensor probs = Tensor::Empty({batch, seq, seq});

  for (int64_t b = 0; b < batch; ++b) {
    Tensor qb = q.Narrow(0, b, 1).Reshape({seq, dim});
    Tensor kb = k.Narrow(0, b, 1).Reshape({seq, dim});
    Tensor vb = v.Narrow(0, b, 1).Reshape({seq, dim});
    Tensor scores = kernels::Scale(kernels::MatMulTransB(qb, kb), scale);
    Tensor p = kernels::Softmax(scores);
    Tensor ob = kernels::MatMul(p, vb);
    probs.Narrow(0, b, 1).Reshape({seq, seq}).CopyFrom(p);
    out.Narrow(0, b, 1).Reshape({seq, dim}).CopyFrom(ob);
  }

  if (autograd::GradModeEnabled() &&
      (q.requires_grad() || k.requires_grad() || v.requires_grad())) {
    Tensor sq = q, sk = k, sv = v, sp = probs;
    auto node = std::make_shared<ClosureNode>(
        [sq, sk, sv, sp, batch, seq, dim, scale](std::vector<Tensor> grads) {
          Tensor g = grads[0].Contiguous();
          Tensor gq = Tensor::Empty(sq.shape());
          Tensor gk = Tensor::Empty(sk.shape());
          Tensor gv = Tensor::Empty(sv.shape());
          for (int64_t b = 0; b < batch; ++b) {
            Tensor gb = g.Narrow(0, b, 1).Reshape({seq, dim});
            Tensor qb = sq.Narrow(0, b, 1).Reshape({seq, dim});
            Tensor kb = sk.Narrow(0, b, 1).Reshape({seq, dim});
            Tensor vb = sv.Narrow(0, b, 1).Reshape({seq, dim});
            Tensor pb = sp.Narrow(0, b, 1).Reshape({seq, seq});
            // dV = P^T dO
            Tensor gvb = kernels::MatMulTransA(pb, gb);
            // dP = dO V^T
            Tensor gpb = kernels::MatMulTransB(gb, vb);
            // dA = P * (dP - rowsum(dP * P))  (softmax backward), then
            // scale.
            Tensor gab = Tensor::Empty({seq, seq});
            {
              const float* pp = pb.data<float>();
              const float* pgp = gpb.data<float>();
              float* pga = gab.data<float>();
              for (int64_t i = 0; i < seq; ++i) {
                double dot = 0.0;
                for (int64_t j = 0; j < seq; ++j) {
                  dot += static_cast<double>(pgp[i * seq + j]) *
                         pp[i * seq + j];
                }
                for (int64_t j = 0; j < seq; ++j) {
                  pga[i * seq + j] = static_cast<float>(
                      pp[i * seq + j] * (pgp[i * seq + j] - dot) * scale);
                }
              }
            }
            // dQ = dA K ; dK = dA^T Q
            Tensor gqb = kernels::MatMul(gab, kb);
            Tensor gkb = kernels::MatMulTransA(gab, qb);
            gq.Narrow(0, b, 1).Reshape({seq, dim}).CopyFrom(gqb);
            gk.Narrow(0, b, 1).Reshape({seq, dim}).CopyFrom(gkb);
            gv.Narrow(0, b, 1).Reshape({seq, dim}).CopyFrom(gvb);
          }
          return std::vector<Tensor>{gq, gk, gv};
        });
    node->set_next_edges(
        {autograd::GradEdge(q), autograd::GradEdge(k), autograd::GradEdge(v)});
    autograd::SetHistory(&out, std::move(node));
  }
  return out;
}

/// TransformerLayer's head loop before the fused op.
Tensor ReferenceMultiHead(const Tensor& q, const Tensor& k, const Tensor& v,
                          int64_t num_heads) {
  if (num_heads == 1) return ReferenceAttention(q, k, v);
  // Split the feature dimension into heads, attend per head, re-join.
  const int64_t head_dim = q.size(2) / num_heads;
  std::vector<Tensor> heads;
  for (int64_t h = 0; h < num_heads; ++h) {
    Tensor qh = ops::SliceLastDim(q, h * head_dim, head_dim);
    Tensor kh = ops::SliceLastDim(k, h * head_dim, head_dim);
    Tensor vh = ops::SliceLastDim(v, h * head_dim, head_dim);
    heads.push_back(ReferenceAttention(qh, kh, vh));
  }
  return ops::ConcatLastDim(heads);
}

using AttentionFn = std::function<Tensor(const Tensor&, const Tensor&,
                                         const Tensor&, int64_t)>;

/// The output, then q, k and v's gradients for `grad_out`, as one byte
/// string per tensor.
std::vector<std::vector<uint8_t>> RunAttention(const AttentionFn& fn,
                                               const std::vector<Tensor>& qkv,
                                               const Tensor& grad_out,
                                               int64_t heads) {
  std::vector<Tensor> leaves;
  for (const Tensor& t : qkv) {
    Tensor leaf = t.Clone();
    leaf.set_requires_grad(true);
    leaves.push_back(leaf);
  }
  Tensor out = fn(leaves[0], leaves[1], leaves[2], heads);
  autograd::Backward(out, grad_out);
  std::vector<std::vector<uint8_t>> bytes;
  for (const Tensor& t :
       {out, leaves[0].grad(), leaves[1].grad(), leaves[2].grad()}) {
    EXPECT_TRUE(t.defined() && t.is_contiguous());
    const uint8_t* p = t.data<uint8_t>();
    bytes.emplace_back(p, p + t.nbytes());
  }
  return bytes;
}

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

TEST(MultiHeadAttentionTest, MatchesPerHeadPathBitForBit) {
  LevelAndPoolGuard guard;
  const char* kWhat[] = {"out", "grad q", "grad k", "grad v"};
  constexpr int64_t kBatch = 2;
  uint64_t seed = 1;
  for (const int64_t heads : {1, 2, 4}) {
    for (const int64_t seq : {1, 8, 13}) {
      for (const int64_t head_dim : {1, 16, 17}) {
        Rng rng(seed++);
        const std::vector<int64_t> shape = {kBatch, seq, heads * head_dim};
        const std::vector<Tensor> qkv = {Tensor::Randn(shape, &rng),
                                         Tensor::Randn(shape, &rng),
                                         Tensor::Randn(shape, &rng)};
        const Tensor grad_out = Tensor::Randn(shape, &rng);
        vec::SetLevelForTesting(vec::Level::kScalar);
        ThreadPool::SetNumThreads(1);
        const auto want = RunAttention(ReferenceMultiHead, qkv, grad_out,
                                       heads);
        for (const vec::Level level : AvailableLevels()) {
          vec::SetLevelForTesting(level);
          for (const int threads : {1, 2, 8}) {
            ThreadPool::SetNumThreads(threads);
            const auto got = RunAttention(
                [](const Tensor& q, const Tensor& k, const Tensor& v,
                   int64_t h) { return ops::Attention(q, k, v, h); },
                qkv, grad_out, heads);
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_EQ(want[i], got[i])
                  << kWhat[i] << " differs: heads=" << heads
                  << " seq=" << seq << " head_dim=" << head_dim
                  << " level=" << vec::LevelName(level)
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(MultiHeadAttentionTest, SavesProbabilitiesPerBatchAndHead) {
  Rng rng(5);
  const Tensor q = Tensor::Randn({2, 3, 8}, &rng);
  const Tensor k = Tensor::Randn({2, 3, 8}, &rng);
  const Tensor v = Tensor::Randn({2, 3, 8}, &rng);
  Tensor probs;
  kernels::Attention(q, k, v, 4, &probs);
  EXPECT_EQ((std::vector<int64_t>{2, 4, 3, 3}), probs.shape());
  for (int64_t row = 0; row < 2 * 4 * 3; ++row) {
    double sum = 0.0;
    for (int64_t j = 0; j < 3; ++j) sum += probs.FlatAt(row * 3 + j);
    EXPECT_NEAR(1.0, sum, 1e-6) << row;
  }
}

}  // namespace
}  // namespace ddpkit
