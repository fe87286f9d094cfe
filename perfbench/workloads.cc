#include "workloads.h"

#include "nn/zoo.h"

namespace perfbench {

using ddpkit::Rng;

namespace {

constexpr int64_t kImageSide = 28;
constexpr int64_t kExamples = 2048;
constexpr double kImageNoise = 0.6;

// ResNetTiny(in 1, width 8, 1 block per stage): stem, one identity block
// at width 8, one downsampling block to width 16.
constexpr int64_t kResNetWidth = 8;

const std::vector<int64_t> kMlpSizes = {kImageSide * kImageSide, 1024, 1024,
                                        1024, 10};

ddpkit::nn::TransformerTiny::Config TransformerConfig() {
  ddpkit::nn::TransformerTiny::Config c;
  c.vocab_size = 64;
  c.seq_len = 8;
  c.dim = 64;
  c.ff_dim = 128;
  c.num_layers = 4;
  c.num_heads = 4;
  c.num_classes = 4;
  return c;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  using M = Workload::Model;
  static const std::vector<Workload> kWorkloads = {
      // Conv kernels and the intra-op pool do almost all the work; one
      // 25 MB bucket holds the 5K parameters, so comm does almost none.
      {"resnet-compute", M::kResNetTiny, /*world=*/2, /*threads=*/2,
       /*batch=*/16, /*micro_batches=*/1, 25u << 20, "none", 0.1,
       /*warmup_steps=*/8},
      // 11.6 MB of gradients in 1 MB buckets over a 4-rank TCP ring:
      // bucketing, overlap and the wire dominate next to M=8 MatMuls.
      {"mlp-comm", M::kMlp, 4, 1, 8, 1, 1u << 20, "none", 0.01, 20},
      // fp16 hook (AllGather transport) + no_sync accumulation over four
      // micro-batches of many small ops.
      {"transformer-accum", M::kTransformerTiny, 2, 1, 16, 4, 25u << 20,
       "fp16", 0.005, 8},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::shared_ptr<ddpkit::nn::Module> MakeModel(const Workload& w, Rng* rng) {
  switch (w.model) {
    case Workload::Model::kResNetTiny:
      return std::make_shared<ddpkit::nn::ResNetTiny>(rng, 1, kResNetWidth, 10,
                                                      1);
    case Workload::Model::kMlp:
      return std::make_shared<ddpkit::nn::Mlp>(kMlpSizes, rng);
    case Workload::Model::kTransformerTiny:
      return std::make_shared<ddpkit::nn::TransformerTiny>(TransformerConfig(),
                                                           rng);
  }
  return nullptr;
}

Dataset::Dataset(const Workload& w, uint64_t seed)
    : flatten_(w.model == Workload::Model::kMlp) {
  if (w.model == Workload::Model::kTransformerTiny) {
    const auto c = TransformerConfig();
    tokens_ = std::make_unique<ddpkit::data::SyntheticTokens>(
        kExamples, c.seq_len, c.vocab_size, c.num_classes, seed);
  } else {
    images_ = std::make_unique<ddpkit::data::SyntheticMnist>(kExamples, seed,
                                                             kImageNoise);
  }
}

ddpkit::data::Batch Dataset::Get(const std::vector<int64_t>& indices) const {
  if (tokens_) return tokens_->Get(indices);
  ddpkit::data::Batch batch = images_->Get(indices);
  if (flatten_) {
    batch.inputs =
        batch.inputs.Reshape({batch.inputs.size(0), kImageSide * kImageSide});
  }
  return batch;
}

int64_t Dataset::size() const { return kExamples; }

std::vector<ConvShape> ConvShapes(const Workload& w) {
  if (w.model != Workload::Model::kResNetTiny) return {};
  const int64_t n = w.batch, c = kResNetWidth, s = kImageSide;
  return {
      {n, 1, s, s, c, 3, 1, 1},                  // stem
      {n, c, s, s, c, 3, 1, 1},                  // stage1_0.conv1
      {n, c, s, s, c, 3, 1, 1},                  // stage1_0.conv2
      {n, c, s, s, 2 * c, 3, 2, 1},              // stage2_0.conv1
      {n, 2 * c, s / 2, s / 2, 2 * c, 3, 1, 1},  // stage2_0.conv2
      {n, c, s, s, 2 * c, 1, 2, 0},              // stage2_0.shortcut
  };
}

std::vector<LinearShape> LinearShapes(const Workload& w) {
  std::vector<LinearShape> shapes;
  switch (w.model) {
    case Workload::Model::kResNetTiny:
      shapes.push_back({w.batch, 2 * kResNetWidth, 10});  // fc
      break;
    case Workload::Model::kMlp:
      for (size_t i = 0; i + 1 < kMlpSizes.size(); ++i) {
        shapes.push_back({w.batch, kMlpSizes[i], kMlpSizes[i + 1]});
      }
      break;
    case Workload::Model::kTransformerTiny: {
      const auto c = TransformerConfig();
      const int64_t rows = w.batch * c.seq_len;
      for (int64_t layer = 0; layer < c.num_layers; ++layer) {
        for (int proj = 0; proj < 4; ++proj) {  // wq, wk, wv, wo
          shapes.push_back({rows, c.dim, c.dim});
        }
        shapes.push_back({rows, c.dim, c.ff_dim});  // ff1
        shapes.push_back({rows, c.ff_dim, c.dim});  // ff2
      }
      shapes.push_back({w.batch, c.seq_len * c.dim, c.num_classes});  // head
      break;
    }
  }
  return shapes;
}

}  // namespace perfbench
