// perfbench_worker — one process of the wall-clock DDP training benchmark
// (run.py drives it; NOTES.md describes the workloads and metrics).
//
//   perfbench_worker --mode=MODE --workload=NAME --seed=N --seconds=S
//                    --trace=0|1 --out=DIR
//
// Modes:
//   describe  print the workload's launch shape, "world=W threads=T"
//   ddp       one training rank under ddp_launch over ProcessGroupTcp:
//             set-up, warmup, then timed steps for about S seconds
//   setup     like ddp, but stops once the rank is ready for step 0
//   single    the same model, batch and seed in one process without DDP
//   kernels   the workload's Conv2d / Linear shapes through kernels::
//
// Results go to DIR/rank<r>.json (ddp, setup), DIR/single.json or
// DIR/kernels.json; with --trace=1 a ddp rank also writes its spans to
// DIR/trace_rank<r>.json when it exits. Every timing is taken here, around
// calls into ddpkit's public API; no library code is instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/engine.h"
#include "autograd/grad_accumulator.h"
#include "autograd/ops.h"
#include "comm/backend_factory.h"
#include "comm/store_tcp.h"
#include "core/compression.h"
#include "core/distributed_data_parallel.h"
#include "data/distributed_sampler.h"
#include "nn/losses.h"
#include "optim/sgd.h"
#include "span_trace.h"
#include "tensor/tensor_ops.h"
#include "timed_process_group.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ddpkit::Rng;
using ddpkit::Tensor;
namespace core = ddpkit::core;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (a.rfind(prefix, 0) != 0) return false;
      *out = a.substr(prefix.size());
      return true;
    };
    std::string v;
    if (value("--mode", &args->mode) || value("--workload", &args->workload) ||
        value("--out", &args->out)) {
      continue;
    }
    if (value("--seed", &v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--seconds", &v)) {
      args->seconds = std::atof(v.c_str());
    } else if (value("--trace", &v)) {
      args->trace = v == "1";
    } else {
      std::fprintf(stderr, "perfbench_worker: unknown argument %s\n",
                   a.c_str());
      return false;
    }
  }
  return !args->mode.empty() && !args->workload.empty() && args->seconds > 0;
}

// ---- JSON output ------------------------------------------------------------

/// Minimal writer for the flat result files run.py reads.
class Json {
 public:
  void Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[40];
    if (std::isnan(v)) {
      std::snprintf(buf, sizeof(buf), "NaN");
    } else if (std::isinf(v)) {
      std::snprintf(buf, sizeof(buf), v > 0 ? "Infinity" : "-Infinity");
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    out_ += buf;
  }
  void Str(const std::string& s) {
    Sep();
    out_ += '"' + s + '"';
  }
  void Nums(const std::vector<double>& vs) {
    Open('[');
    for (double v : vs) Num(v);
    Close(']');
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote = std::fputs(out_.c_str(), f) >= 0;
    return std::fclose(f) == 0 && wrote;
  }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void WriteCounters(Json* j, const CollectiveCounters& c) {
  j->Open('{');
  for (size_t k = 0; k < kNumCollectives; ++k) {
    j->Key(CollectiveName(static_cast<Collective>(k)));
    j->Open('{');
    j->Key("calls");
    j->Num(static_cast<double>(c[k].calls));
    j->Key("bytes");
    j->Num(static_cast<double>(c[k].bytes));
    j->Key("seconds");
    j->Num(c[k].seconds);
    j->Close('}');
  }
  j->Close('}');
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Training ---------------------------------------------------------------

/// How the ranks of one launch agree on the length of the timed phase:
/// rank 0 proposes each value, every rank reads rank 0's proposal.
struct StepPlan {
  std::function<void(const std::string& key, int64_t value)> propose;
  std::function<int64_t(const std::string& key)> read;
};

/// One rank's training loop, with or without DDP. Times each call into
/// data, nn, autograd and optim from the outside; the comm layer is timed
/// by the TimedProcessGroup that DDP was built on.
class Trainer {
 public:
  Trainer(const Workload& w, uint64_t seed, int world, int rank,
          std::shared_ptr<TimedProcessGroup> pg, SpanTrace* trace)
      : w_(w),
        trace_(trace),
        data_(w, seed),
        sampler_(data_.size(), world, rank, seed + 7),
        indices_(sampler_.EpochIndices(0)) {
    Rng rng(seed + 100);
    model_ = MakeModel(w, &rng);
    // Registered before DDP builds its reducer, so on every parameter this
    // hook fires ahead of DDP's own grad-ready hook.
    for (const Tensor& p : model_->parameters()) {
      ddpkit::autograd::GetGradAccumulator(p)->AddPostHook(
          [this](const Tensor&) { last_grad_ready_ = MonoSeconds(); });
    }
    if (pg != nullptr) {
      core::DdpOptions options;
      options.bucket_cap_bytes = w.bucket_cap_bytes;
      options.comm_hook = core::MakeCommHookByName(w.comm_hook);
      const CollectiveCounters before = pg->Snapshot();
      ddp_ = std::make_unique<core::DistributedDataParallel>(model_, pg,
                                                             options);
      setup_comm_ = Diff(pg->Snapshot(), before);
    }
    optimizer_ = std::make_unique<ddpkit::optim::Sgd>(
        model_->parameters(),
        ddpkit::optim::Sgd::Options{.lr = w.lr, .momentum = kMomentum});
  }
  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// The untimed warmup steps. Returns false on a failed step.
  bool Warmup(bool scan_grads) {
    for (int i = 0; i < w_.warmup_steps; ++i) {
      if (!Step(next_step_++, /*timed=*/false, scan_grads)) return false;
    }
    return true;
  }

  /// Timed steps, in chunks of about a second, until about `seconds` have
  /// passed. Whether chunk k+1 runs is proposed before chunk k starts, from
  /// the pace so far, and read back after it ends: in a multi-rank run rank
  /// 0's proposal is then in the Store well before a peer reads it, so the
  /// ranks agree on the step count without waiting on each other. Returns
  /// false on a failed step.
  bool RunTimed(double seconds, bool scan_grads, const StepPlan& plan) {
    const double warmup_ms = WarmupPaceMs();
    plan.propose("chunk", std::max<int64_t>(1, std::llround(1e3 / warmup_ms)));
    const int64_t chunk = plan.read("chunk");
    if (chunk <= 0) return false;
    const double start = MonoSeconds();
    for (int64_t k = 0;; ++k) {
      const double elapsed = MonoSeconds() - start;
      const double chunk_s = k == 0 ? chunk * warmup_ms / 1e3 : elapsed / k;
      // Chunk k+1 would end near elapsed + 2 chunks; run it when that is
      // at most half a chunk past the target.
      const std::string key = "more/" + std::to_string(k);
      plan.propose(key, elapsed + 1.5 * chunk_s <= seconds);
      for (int64_t i = 0; i < chunk; ++i) {
        if (!Step(next_step_++, /*timed=*/true, scan_grads)) return false;
      }
      if (plan.read(key) != 1) return true;
    }
  }

  /// FNV-1a over every parameter's bytes, in parameter order.
  std::string ParamDigest() const {
    uint64_t h = 1469598103934665603ull;
    for (const Tensor& p : model_->parameters()) {
      const Tensor c = p.is_contiguous() ? p : p.Contiguous();
      const auto* bytes =
          reinterpret_cast<const unsigned char*>(c.data<float>());
      const size_t n = c.nbytes();
      for (size_t i = 0; i < n; ++i) {
        h = (h ^ bytes[i]) * 1099511628211ull;
      }
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

  void WriteResult(Json* j) const {
    j->Key("warmup_steps");
    j->Num(w_.warmup_steps);
    j->Key("attempted");
    j->Num(static_cast<double>(attempted_));
    j->Key("failed");
    j->Num(static_cast<double>(failed_));
    j->Key("samples_per_step");
    j->Num(static_cast<double>(w_.batch * w_.micro_batches));
    j->Key("first_start_s");
    j->Num(first_start_);
    j->Key("last_end_s");
    j->Num(last_end_);
    j->Key("step_ms");
    j->Nums(step_ms_);
    j->Key("backward_start_s");
    j->Nums(backward_start_);
    j->Key("tail_ms");
    j->Nums(tail_ms_);
    j->Key("loss_first");
    j->Num(loss_first_);
    j->Key("loss_final");
    j->Num(FinalLoss());
    j->Key("digest");
    j->Str(ParamDigest());
    j->Key("grad_elems");
    j->Num(grad_elems_);
    j->Key("grad_subnormal");
    j->Num(grad_subnormal_);
  }

  core::DistributedDataParallel* ddp() { return ddp_.get(); }
  const CollectiveCounters& setup_comm() const { return setup_comm_; }

 private:
  /// One optimizer step (micro_batches forward/backward passes). Returns
  /// false when DDP reports a failed gradient sync; the step's gradients
  /// are then not applied.
  bool Step(int64_t step_id, bool timed, bool scan_grads) {
    trace_->set_step(step_id);
    ScopedSpan step_span(trace_, "step");
    const double start = MonoSeconds();
    double loss_value = 0.0, backward_start = 0.0, backward_end = 0.0;
    for (int m = 0; m < w_.micro_batches; ++m) {
      const bool sync = m + 1 == w_.micro_batches;
      ddpkit::data::Batch batch;
      {
        ScopedSpan span(trace_, "data.get");
        batch = data_.Get(NextIndices());
      }
      std::optional<core::DistributedDataParallel::NoSyncGuard> no_sync;
      if (ddp_ != nullptr && !sync) no_sync.emplace(ddp_.get());
      Tensor output;
      {
        ScopedSpan span(trace_, "nn.forward");
        output = ddp_ != nullptr ? ddp_->Forward(batch.inputs)
                                 : model_->Forward(batch.inputs);
      }
      Tensor loss;
      {
        ScopedSpan span(trace_, "nn.loss");
        loss = criterion_(output, batch.targets);
        if (w_.micro_batches > 1) {
          loss = ddpkit::ops::Scale(loss, 1.0 / w_.micro_batches);
        }
      }
      loss_value += loss.Item();
      if (sync) backward_start = last_grad_ready_ = MonoSeconds();
      {
        ScopedSpan span(trace_, "autograd.backward");
        ddpkit::autograd::Backward(loss);
      }
      if (sync) backward_end = MonoSeconds();
    }
    if (timed) ++attempted_;
    if (step_id == 0) loss_first_ = loss_value;
    if (timed) timed_losses_.push_back(loss_value);
    if (ddp_ != nullptr && !ddp_->sync_status().ok()) {
      std::fprintf(stderr,
                   "perfbench_worker: step %lld gradient sync failed: %s\n",
                   static_cast<long long>(step_id),
                   ddp_->sync_status().ToString().c_str());
      if (timed) ++failed_;
      return false;
    }
    if (scan_grads) {
      ScopedSpan span(trace_, "bench.scan_grads");
      ScanGrads();
    }
    {
      ScopedSpan span(trace_, "optim.step");
      optimizer_->Step();
    }
    {
      ScopedSpan span(trace_, "optim.zero_grad");
      optimizer_->ZeroGrad();
    }
    const double end = MonoSeconds();
    if (timed) {
      if (step_ms_.empty()) first_start_ = start;
      last_end_ = end;
      step_ms_.push_back(1e3 * (end - start));
      backward_start_.push_back(backward_start);
      tail_ms_.push_back(1e3 * (backward_end - last_grad_ready_));
    } else {
      warmup_ms_.push_back(1e3 * (end - start));
    }
    return true;
  }

  std::vector<int64_t> NextIndices() {
    std::vector<int64_t> ids;
    for (int64_t b = 0; b < w_.batch; ++b) {
      if (cursor_ == indices_.size()) {
        indices_ = sampler_.EpochIndices(++epoch_);
        cursor_ = 0;
      }
      ids.push_back(indices_[cursor_++]);
    }
    return ids;
  }

  /// Mean loss of the last tenth of the timed steps (at least one), so one
  /// noisy mini-batch does not decide the loss check. NaN without steps.
  double FinalLoss() const {
    const size_t n = std::max<size_t>(1, timed_losses_.size() / 10);
    if (timed_losses_.size() < n) return std::nan("");
    double sum = 0.0;
    for (size_t i = timed_losses_.size() - n; i < timed_losses_.size(); ++i) {
      sum += timed_losses_[i];
    }
    return sum / static_cast<double>(n);
  }

  /// Median warmup step time. The first two warmup steps pay lazy
  /// allocation and are left out.
  double WarmupPaceMs() const {
    const size_t skip = std::min<size_t>(2, warmup_ms_.size() - 1);
    return std::max(
        Median({warmup_ms_.begin() + static_cast<std::ptrdiff_t>(skip),
                warmup_ms_.end()}),
        1e-3);
  }

  /// Counts subnormal gradient elements after a step's backward: each one
  /// takes the slow microcode path of SSE arithmetic when FTZ/DAZ are off.
  void ScanGrads() {
    for (const Tensor& p : model_->parameters()) {
      Tensor g = p.grad();
      if (!g.defined()) continue;
      // A copy would cost more than the scan (fresh pages fault in).
      if (!g.is_contiguous()) g = g.Contiguous();
      const float* v = g.data<float>();
      const int64_t n = g.numel();
      int64_t subnormal = 0;
      for (int64_t i = 0; i < n; ++i) {
        uint32_t bits;
        std::memcpy(&bits, &v[i], sizeof(bits));
        subnormal += static_cast<int64_t>(((bits & 0x7f800000u) == 0) &
                                          ((bits & 0x007fffffu) != 0));
      }
      grad_subnormal_ += static_cast<double>(subnormal);
      grad_elems_ += static_cast<double>(n);
    }
  }

  const Workload& w_;
  SpanTrace* trace_;
  Dataset data_;
  ddpkit::data::DistributedSampler sampler_;
  std::vector<int64_t> indices_;
  size_t cursor_ = 0;
  int64_t epoch_ = 0;
  std::shared_ptr<ddpkit::nn::Module> model_;
  std::unique_ptr<core::DistributedDataParallel> ddp_;
  std::unique_ptr<ddpkit::optim::Sgd> optimizer_;
  ddpkit::nn::CrossEntropyLoss criterion_;
  CollectiveCounters setup_comm_{};

  int64_t next_step_ = 0;
  double last_grad_ready_ = 0.0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double loss_first_ = 0.0;
  std::vector<double> timed_losses_;
  double first_start_ = 0.0;
  double last_end_ = 0.0;
  std::vector<double> warmup_ms_;
  std::vector<double> step_ms_;
  std::vector<double> backward_start_;
  std::vector<double> tail_ms_;
  double grad_elems_ = 0.0;
  double grad_subnormal_ = 0.0;
};

// ---- Modes ------------------------------------------------------------------

int RunDdp(const Args& args, const Workload& w, bool setup_only) {
  ddpkit::Result<ddpkit::comm::LaunchEnv> env = ddpkit::comm::ReadLaunchEnv();
  if (!env.ok()) {
    std::fprintf(stderr,
                 "perfbench_worker: needs the ddp_launch environment: %s\n",
                 env.status().message().c_str());
    return 2;
  }
  const int rank = env.value().rank;
  if (env.value().world != w.world) {
    std::fprintf(stderr,
                 "perfbench_worker: %s runs at world %d, launched at %d\n",
                 w.name.c_str(), w.world, env.value().world);
    return 2;
  }
  SpanTrace trace(args.trace);
  ddpkit::sim::VirtualClock clock;
  ddpkit::comm::StoreClientTcp store(env.value().store_host,
                                     env.value().store_port);
  ddpkit::comm::BackendConfig config;
  config.backend = "tcp";
  auto group = ddpkit::comm::CreateProcessGroupBackend(
      config, &store, "perfbench", rank, w.world, &clock);
  if (!group.ok()) {
    std::fprintf(stderr, "perfbench_worker: tcp rendezvous failed: %s\n",
                 group.status().message().c_str());
    return 1;
  }
  auto timed_pg = std::make_shared<TimedProcessGroup>(group.value(), &trace);
  Trainer trainer(w, args.seed, w.world, rank, timed_pg, &trace);
  const double ready = MonoSeconds();

  bool ok = true;
  CollectiveCounters comm{};
  core::Reducer::Stats reducer_before, reducer_after;
  if (!setup_only) {
    // The plan goes through the launcher's Store, not a collective, so the
    // comm counters see only training traffic.
    StepPlan plan;
    plan.propose = [&](const std::string& key, int64_t value) {
      if (rank == 0) store.Set("perfbench/" + key, std::to_string(value));
    };
    plan.read = [&](const std::string& key) -> int64_t {
      auto value = store.GetWithRetry("perfbench/" + key, 60.0);
      return value.ok() ? std::atoll(value.value().c_str()) : -1;
    };
    ok = trainer.Warmup(args.trace);
    reducer_before = trainer.ddp()->reducer().stats();
    const CollectiveCounters before = timed_pg->Snapshot();
    ok = ok && trainer.RunTimed(args.seconds, args.trace, plan);
    comm = Diff(timed_pg->Snapshot(), before);
    reducer_after = trainer.ddp()->reducer().stats();
  }

  Json j;
  j.Open('{');
  j.Key("rank");
  j.Num(rank);
  j.Key("world");
  j.Num(w.world);
  j.Key("ready_s");
  j.Num(ready);
  j.Key("peak_rss_kb");
  j.Num(PeakRssKb());
  j.Key("setup_comm");
  WriteCounters(&j, trainer.setup_comm());
  if (!setup_only) {
    trainer.WriteResult(&j);
    j.Key("comm");
    WriteCounters(&j, comm);
    j.Key("buckets");
    j.Num(static_cast<double>(trainer.ddp()->reducer().num_buckets()));
    j.Key("bytes_wire_raw");
    j.Num(static_cast<double>(reducer_after.bytes_wire_raw -
                              reducer_before.bytes_wire_raw));
    j.Key("bytes_wire_compressed");
    j.Num(static_cast<double>(reducer_after.bytes_wire_compressed -
                              reducer_before.bytes_wire_compressed));
  }
  j.Close('}');
  const std::string dir = args.out + "/";
  bool wrote = j.WriteTo(dir + "rank" + std::to_string(rank) + ".json");
  if (trace.enabled()) {
    const std::string path =
        dir + "trace_rank" + std::to_string(rank) + ".json";
    wrote = trace.WriteJson(path) && wrote;
  }
  // No rank tears its sockets down while a peer is still mid-collective.
  group.value()->Barrier();
  if (!wrote) {
    std::fprintf(stderr, "perfbench_worker: cannot write results under %s\n",
                 args.out.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}

int RunSingle(const Args& args, const Workload& w) {
  SpanTrace trace(false);
  Trainer trainer(w, args.seed, /*world=*/1, /*rank=*/0, nullptr, &trace);
  std::map<std::string, int64_t> proposals;
  const StepPlan plan{
      [&](const std::string& key, int64_t value) { proposals[key] = value; },
      [&](const std::string& key) { return proposals.at(key); }};
  const bool ok = trainer.Warmup(false) &&
                  trainer.RunTimed(args.seconds, false, plan);
  Json j;
  j.Open('{');
  trainer.WriteResult(&j);
  j.Close('}');
  if (!j.WriteTo(args.out + "/single.json")) return 1;
  return ok ? 0 : 1;
}

/// Times the workload's Conv2d and Linear shapes through the public
/// kernels:: entry points: one round calls every shape once per kernel, and
/// each family reports its flop per round over its median round time.
int RunKernels(const Args& args, const Workload& w) {
  Rng rng(args.seed + 200);
  struct ConvCase {
    ConvShape s;
    Tensor input, weight, grad_out;
  };
  struct LinearCase {
    LinearShape s;
    Tensor x, weight, grad_out;
  };
  std::vector<ConvCase> convs;
  for (const ConvShape& s : ConvShapes(w)) {
    convs.push_back({s, Tensor::Randn({s.n, s.cin, s.h, s.w}, &rng),
                     Tensor::Randn({s.cout, s.cin, s.k, s.k}, &rng),
                     Tensor::Randn({s.n, s.cout, s.out_h(), s.out_w()}, &rng)});
  }
  std::vector<LinearCase> linears;
  for (const LinearShape& s : LinearShapes(w)) {
    linears.push_back({s, Tensor::Randn({s.m, s.in}, &rng),
                       Tensor::Randn({s.out, s.in}, &rng),
                       Tensor::Randn({s.m, s.out}, &rng)});
  }

  struct Family {
    const char* name;
    double flop = 0.0;
    std::vector<double> round_s;
  };
  Family fams[4] = {{"conv2d_fwd", 0.0, {}},
                    {"conv2d_bwd_input", 0.0, {}},
                    {"conv2d_bwd_weight", 0.0, {}},
                    {"matmul", 0.0, {}}};
  for (const ConvCase& c : convs) {
    for (int f = 0; f < 3; ++f) fams[f].flop += c.s.flop();
  }
  for (const LinearCase& c : linears) fams[3].flop += 3.0 * c.s.flop();

  double sink = 0.0;
  auto timed = [&](Family& fam, bool record, auto&& body) {
    const double t0 = MonoSeconds();
    body();
    if (record) fam.round_s.push_back(MonoSeconds() - t0);
  };
  const double start = MonoSeconds();
  for (int round = 0;; ++round) {
    const bool record = round > 0;  // round 0 warms caches and the pool
    timed(fams[0], record, [&] {
      for (const ConvCase& c : convs) {
        sink += ddpkit::kernels::Conv2d(c.input, c.weight,
                                        {c.s.stride, c.s.pad})
                    .FlatAt(0);
      }
    });
    timed(fams[1], record, [&] {
      for (const ConvCase& c : convs) {
        sink += ddpkit::kernels::Conv2dBackwardInput(
                    c.grad_out, c.weight, c.input.shape(),
                    {c.s.stride, c.s.pad})
                    .FlatAt(0);
      }
    });
    timed(fams[2], record, [&] {
      for (const ConvCase& c : convs) {
        sink += ddpkit::kernels::Conv2dBackwardWeight(
                    c.grad_out, c.input, c.weight.shape(),
                    {c.s.stride, c.s.pad})
                    .FlatAt(0);
      }
    });
    timed(fams[3], record, [&] {
      for (const LinearCase& c : linears) {
        sink += ddpkit::kernels::MatMulTransB(c.x, c.weight).FlatAt(0);
        sink += ddpkit::kernels::MatMul(c.grad_out, c.weight).FlatAt(0);
        sink += ddpkit::kernels::MatMulTransA(c.grad_out, c.x).FlatAt(0);
      }
    });
    if (round >= 5 && MonoSeconds() - start >= args.seconds) break;
  }

  Json j;
  j.Open('{');
  for (const Family& fam : fams) {
    const double t = Median(fam.round_s);
    j.Key(fam.name);
    j.Open('{');
    j.Key("flop");
    j.Num(fam.flop);
    j.Key("gflops");
    j.Num(fam.flop > 0.0 && t > 0.0 ? fam.flop / t / 1e9 : 0.0);
    j.Key("rounds");
    j.Num(static_cast<double>(fam.round_s.size()));
    j.Close('}');
  }
  j.Key("checksum");
  j.Num(sink);
  j.Close('}');
  return j.WriteTo(args.out + "/kernels.json") ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_worker --mode=describe|ddp|setup|single|"
                 "kernels --workload=NAME [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--out=DIR]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_worker: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.mode == "describe") {
    std::printf("world=%d threads=%d\n", w->world, w->threads);
    return 0;
  }
  if (args.out.empty()) {
    std::fprintf(stderr, "perfbench_worker: --out=DIR is required\n");
    return 2;
  }
  if (args.mode == "ddp" || args.mode == "setup") {
    return RunDdp(args, *w, args.mode == "setup");
  }
  if (args.mode == "single") return RunSingle(args, *w);
  if (args.mode == "kernels") return RunKernels(args, *w);
  std::fprintf(stderr, "perfbench_worker: unknown mode %s\n",
               args.mode.c_str());
  return 2;
}
