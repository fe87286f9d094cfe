#include "comm/schedule.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "common/vec.h"
#include "sim/topology.h"

namespace ddpkit::comm {

const char* CollectiveName(Collective kind) {
  switch (kind) {
    case Collective::kAllReduce:
      return "allreduce";
    case Collective::kBroadcast:
      return "broadcast";
    case Collective::kAllGather:
      return "allgather";
    case Collective::kReduce:
      return "reduce";
    case Collective::kReduceScatter:
      return "reduce_scatter";
    case Collective::kGather:
      return "gather";
    case Collective::kBarrier:
      return "barrier";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Generators. Each appends one rank's steps; the comments give the combine
// order every rank of the collective ends up with.
// ---------------------------------------------------------------------------

namespace {

Span Data(int64_t at, int64_t len) { return {Region::kData, at, len}; }
Span Input(int64_t at, int64_t len) { return {Region::kInput, at, len}; }
Span Scratch(int64_t at, int64_t len) { return {Region::kScratch, at, len}; }

class Builder {
 public:
  explicit Builder(Schedule* schedule) : s_(schedule) {}

  // Wire steps are kept even at zero length: each is one socket call, and
  // the fault shim counts calls.
  void Send(int to, Span src) { Add({StepKind::kSend, to, -1, src, {}}); }
  void Recv(int from, Span dst) { Add({StepKind::kRecv, -1, from, {}, dst}); }
  void Exchange(int to, Span src, int from, Span dst) {
    Add({StepKind::kExchange, to, from, src, dst});
  }
  void Combine(Span dst, Span src) {
    if (dst.len > 0) Add({StepKind::kCombine, -1, -1, src, dst});
  }
  void Copy(Span dst, Span src) {
    if (dst.len > 0) Add({StepKind::kCopy, -1, -1, src, dst});
  }

 private:
  void Add(const Step& step) { s_->steps.push_back(step); }
  Schedule* s_;
};

/// Root star reduce: the root receives every other rank's `n` elements in
/// ascending rank order into scratch and combines each into its own data
/// (own value on the left). Shared by kNaive (root 0) and Reduce.
void StarReduce(Builder* b, int world, int rank, int root, int64_t n) {
  if (rank != root) {
    b->Send(root, Data(0, n));
    return;
  }
  for (int q = 0; q < world; ++q) {
    if (q == root) continue;
    b->Recv(q, Scratch(0, n));
    b->Combine(Data(0, n), Scratch(0, n));
  }
}

/// Root star broadcast of `n` elements in ascending rank order.
void StarBroadcast(Builder* b, int world, int rank, int root, int64_t n) {
  if (rank != root) {
    b->Recv(root, Data(0, n));
    return;
  }
  for (int q = 0; q < world; ++q) {
    if (q != root) b->Send(q, Data(0, n));
  }
}

/// A ring over `m` ranks `stride` apart (position i is rank i * stride;
/// this rank is position `me`) with `n` elements split into
/// m * chunks_per_rank chunks; chunk k is owned by position k % m.
///
/// Reduce-scatter: chunk k's partial starts at position owner + 1 with that
/// rank's value and travels the ring; each next rank combines its own
/// value as the right operand, ending at the owner. chunks_per_rank > 1 is
/// the pipelined chunked ring (fbcollective's allreduce_ring_chunked): an
/// owner's chunks travel packed in one message per step. All-gather then
/// rotates the finished chunks once around the ring.
class RingPlan {
 public:
  RingPlan(int m, int stride, int me, int64_t n, int chunks_per_rank)
      : m_(m),
        stride_(stride),
        me_(me),
        cpr_(chunks_per_rank),
        num_chunks_(m_ * chunks_per_rank),
        base_(n / num_chunks_),
        rem_(n % num_chunks_),
        stage_((base_ + 1) * chunks_per_rank) {}

  /// Phase 1 over `src` (kData or kInput); leaves this position's reduced
  /// chunks in data, at their own offsets or (`to_front`) packed from 0.
  void ReduceScatter(Builder* b, Region src, bool to_front) const {
    const int next = Member(me_ + 1);
    const int prev = Member(me_ - 1);
    // Two scratch halves alternate: receive into one while the partial
    // received last step is forwarded from the other.
    int64_t send_at = 0;
    int64_t recv_at = stage_;
    for (int s = 1; s < m_; ++s) {
      const int send_owner = Pos(me_ - s);
      const int recv_owner = Pos(me_ - 1 - s);
      Span send = Scratch(send_at, OwnerLen(send_owner));
      if (s == 1) {
        // This rank starts send_owner's partials with its raw value.
        if (cpr_ == 1) {
          send = {src, Begin(send_owner), Size(send_owner)};
        } else {
          Pack(b, send_owner, src, send_at);
        }
      }
      b->Exchange(next, send, prev, Scratch(recv_at, OwnerLen(recv_owner)));
      int64_t at = recv_at;
      for (int k = recv_owner; k < num_chunks_; k += m_) {
        b->Combine(Scratch(at, Size(k)), {src, Begin(k), Size(k)});
        at += Size(k);
      }
      std::swap(send_at, recv_at);
    }
    // The partial received last is this position's own, complete.
    int64_t at = 0;
    for (int k = me_; k < num_chunks_; k += m_) {
      b->Copy(Data(to_front ? at : Begin(k), Size(k)),
              Scratch(send_at + at, Size(k)));
      at += Size(k);
    }
  }

  /// Phase 2: rotate the finished chunks so every position holds all.
  void AllGather(Builder* b) const {
    const int next = Member(me_ + 1);
    const int prev = Member(me_ - 1);
    for (int s = 1; s < m_; ++s) {
      const int send_owner = Pos(me_ - s + 1);
      const int recv_owner = Pos(me_ - s);
      if (cpr_ == 1) {
        b->Exchange(next, Data(Begin(send_owner), Size(send_owner)), prev,
                    Data(Begin(recv_owner), Size(recv_owner)));
        continue;
      }
      Pack(b, send_owner, Region::kData, 0);
      b->Exchange(next, Scratch(0, OwnerLen(send_owner)), prev,
                  Scratch(stage_, OwnerLen(recv_owner)));
      int64_t at = stage_;
      for (int k = recv_owner; k < num_chunks_; k += m_) {
        b->Copy(Data(Begin(k), Size(k)), Scratch(at, Size(k)));
        at += Size(k);
      }
    }
  }

 private:
  int Pos(int i) const { return ((i % m_) + m_) % m_; }
  int Member(int i) const { return Pos(i) * stride_; }
  int64_t Begin(int k) const { return base_ * k + std::min<int64_t>(k, rem_); }
  int64_t Size(int k) const { return base_ + (k < rem_ ? 1 : 0); }
  int64_t OwnerLen(int owner) const {
    int64_t total = 0;
    for (int k = owner; k < num_chunks_; k += m_) total += Size(k);
    return total;
  }
  void Pack(Builder* b, int owner, Region src, int64_t at) const {
    for (int k = owner; k < num_chunks_; k += m_) {
      b->Copy(Scratch(at, Size(k)), {src, Begin(k), Size(k)});
      at += Size(k);
    }
  }

  int m_;
  int stride_;
  int me_;
  int cpr_;
  int num_chunks_;
  int64_t base_;
  int64_t rem_;
  int64_t stage_;
};

/// Recursive halving-doubling (MPICH/Rabenseifner): ranks beyond the
/// leading power of two fold into their even neighbour, recursive halving
/// reduce-scatters (the keeper combines its own half with the partner's,
/// own value on the left), recursive doubling reverses the splits, and the
/// folded ranks get the result back. Every rank replays all participants'
/// segment bookkeeping and emits only its own exchanges.
void HalvingDoublingAllReduce(Builder* b, int world, int rank, int64_t n) {
  int pof2 = 1;
  while (pof2 * 2 <= world) pof2 *= 2;
  const int rem = world - pof2;
  if (rank < 2 * rem) {
    if (rank % 2 == 1) {
      b->Send(rank - 1, Data(0, n));
      b->Recv(rank - 1, Data(0, n));
      return;
    }
    b->Recv(rank + 1, Scratch(0, n));
    b->Combine(Data(0, n), Scratch(0, n));
  }
  const int p = rank < 2 * rem ? rank / 2 : rank - rem;
  auto part_rank = [&](int q) { return q < rem ? 2 * q : q + rem; };
  std::vector<Span> seg(static_cast<size_t>(pof2), Data(0, n));
  auto at = [&](int q) -> Span& { return seg[static_cast<size_t>(q)]; };

  for (int mask = pof2 / 2; mask >= 1; mask /= 2) {
    for (int a = 0; a < pof2; ++a) {
      const int c = a ^ mask;
      if (c < a) continue;
      // The pair shares a segment: a keeps its low half, c the high half.
      const Span whole = at(a);
      at(a) = Data(whole.offset, whole.len / 2);
      at(c) = Data(whole.offset + whole.len / 2, whole.len - whole.len / 2);
      if (a != p && c != p) continue;
      const int partner = part_rank(a == p ? c : a);
      const Span keep = at(p);
      b->Exchange(partner, at(a == p ? c : a), partner,
                  Scratch(0, keep.len));
      b->Combine(keep, Scratch(0, keep.len));
    }
  }

  for (int mask = 1; mask < pof2; mask *= 2) {
    for (int a = 0; a < pof2; ++a) {
      const int c = a ^ mask;
      if (c < a) continue;
      if (a == p) b->Exchange(part_rank(c), at(a), part_rank(c), at(c));
      if (c == p) b->Exchange(part_rank(a), at(c), part_rank(a), at(a));
      at(a) = at(c) = Data(at(a).offset, at(a).len + at(c).len);
    }
  }
  if (rank < 2 * rem) b->Send(rank + 1, Data(0, n));
}

/// Tree (NCCL 2.4's tree mode, paper [22]): recursive doubling reduce to
/// rank 0 — the receiver's own value on the left — then a star broadcast.
void TreeAllReduce(Builder* b, int world, int rank, int64_t n) {
  for (int span = 1; span < world; span *= 2) {
    if (rank % (2 * span) == 0) {
      if (rank + span < world) {
        b->Recv(rank + span, Scratch(0, n));
        b->Combine(Data(0, n), Scratch(0, n));
      }
    } else if (rank % (2 * span) == span) {
      b->Send(rank - span, Data(0, n));
      break;  // contribution handed off; wait for the broadcast
    }
  }
  StarBroadcast(b, world, rank, /*root=*/0, n);
}

/// Hierarchical two-level (ranks host-major): each node's leader combines
/// its members' values in ascending rank order, the leaders run a classic
/// ring (the only cross-host traffic), and each leader broadcasts inside
/// its node. A single node is exactly kNaive.
void HierarchicalAllReduce(Builder* b, int world, int rank, int64_t n,
                           int ranks_per_node) {
  if (ranks_per_node <= 0) ranks_per_node = sim::Topology().gpus_per_host();
  const int nodes = (world + ranks_per_node - 1) / ranks_per_node;
  const int node = rank / ranks_per_node;
  const int lo = node * ranks_per_node;
  const int hi = std::min(world, lo + ranks_per_node);
  if (rank != lo) {
    b->Send(lo, Data(0, n));
    b->Recv(lo, Data(0, n));
    return;
  }
  for (int r = lo + 1; r < hi; ++r) {
    b->Recv(r, Scratch(0, n));
    b->Combine(Data(0, n), Scratch(0, n));
  }
  if (nodes > 1) {
    const RingPlan ring(nodes, ranks_per_node, node, n, /*chunks_per_rank=*/1);
    ring.ReduceScatter(b, Region::kData, /*to_front=*/false);
    ring.AllGather(b);
  }
  for (int r = lo + 1; r < hi; ++r) b->Send(r, Data(0, n));
}

/// fp16: fp32 accumulation at rank 0 starting from +0.0f over ranks
/// 0..world-1 ascending, one rounding to half, then a star broadcast.
void Fp16AllReduce(Builder* b, int world, int rank, int64_t n) {
  if (rank != 0) {
    b->Send(0, Data(0, n));
    b->Recv(0, Data(0, n));
    return;
  }
  const Span accum{Region::kAccum, 0, n};
  b->Combine(accum, Data(0, n));
  for (int q = 1; q < world; ++q) {
    b->Recv(q, Scratch(0, n));
    b->Combine(accum, Scratch(0, n));
  }
  b->Copy(Data(0, n), accum);
  StarBroadcast(b, world, rank, /*root=*/0, n);
}

void AllReduce(Builder* b, const ScheduleParams& p) {
  const int w = p.world;
  const int64_t n = p.numel;
  if (p.fp32_accumulate) {
    if (w > 1) Fp16AllReduce(b, w, p.rank, n);
    return;
  }
  if (w == 1 || n == 0) return;
  switch (p.algorithm) {
    case Algorithm::kAuto:  // callers resolve it; never desynchronizes
    case Algorithm::kNaive:
      // Rank 0 combines everyone in ascending rank order, then broadcasts.
      StarReduce(b, w, p.rank, /*root=*/0, n);
      StarBroadcast(b, w, p.rank, /*root=*/0, n);
      return;
    case Algorithm::kRing:
    case Algorithm::kRingChunked: {
      const RingPlan ring(w, 1, p.rank, n,
                          p.algorithm == Algorithm::kRing
                              ? 1
                              : sim::kRingChunksPerRank);
      ring.ReduceScatter(b, Region::kData, /*to_front=*/false);
      ring.AllGather(b);
      return;
    }
    case Algorithm::kTree:
      TreeAllReduce(b, w, p.rank, n);
      return;
    case Algorithm::kHalvingDoubling:
      HalvingDoublingAllReduce(b, w, p.rank, n);
      return;
    case Algorithm::kHierarchical:
      HierarchicalAllReduce(b, w, p.rank, n, p.ranks_per_node);
      return;
  }
}

}  // namespace

Schedule MakeSchedule(const ScheduleParams& p) {
  Schedule schedule;
  Builder b(&schedule);
  const int w = p.world;
  const int64_t n = p.numel;
  switch (p.kind) {
    case Collective::kAllReduce:
      AllReduce(&b, p);
      break;
    case Collective::kBroadcast:
      if (w > 1 && n > 0) StarBroadcast(&b, w, p.rank, p.root, n);
      break;
    case Collective::kAllGather: {
      // Ring rotation in the output: step s forwards the block received
      // the step before.
      b.Copy(Data(p.rank * n, n), Input(0, n));
      if (w == 1 || n == 0) break;
      for (int s = 1; s < w; ++s) {
        const int send_block = (p.rank - s + 1 + w) % w;
        const int recv_block = (p.rank - s + w) % w;
        b.Exchange((p.rank + 1) % w, Data(send_block * n, n),
                   (p.rank + w - 1) % w, Data(recv_block * n, n));
      }
      break;
    }
    case Collective::kReduce:
      // The root's tensor accumulates the others in ascending rank order.
      if (w > 1 && n > 0) StarReduce(&b, w, p.rank, p.root, n);
      break;
    case Collective::kReduceScatter:
      // The classic ring's phase 1 over the input; chunk r lands in rank
      // r's output.
      if (w == 1) {
        b.Copy(Data(0, n), Input(0, n));
      } else if (n > 0) {
        RingPlan(w, 1, p.rank, n * w, /*chunks_per_rank=*/1)
            .ReduceScatter(&b, Region::kInput, /*to_front=*/true);
      }
      break;
    case Collective::kGather:
      if (p.rank != p.root) {
        b.Send(p.root, Input(0, n));
        break;
      }
      b.Copy(Data(p.root * n, n), Input(0, n));
      for (int q = 0; q < w; ++q) {
        if (q != p.root) b.Recv(q, Data(q * n, n));
      }
      break;
    case Collective::kBarrier:
      if (w == 1) break;
      // A one-element token into rank 0's star and back out.
      if (p.rank != 0) b.Send(0, Data(0, 1));
      for (int q = 1; p.rank == 0 && q < w; ++q) b.Recv(q, Data(0, 1));
      StarBroadcast(&b, w, p.rank, /*root=*/0, 1);
      break;
  }
  // Size the scratch and accumulator to what the steps touch.
  for (const Step& step : schedule.steps) {
    for (const Span& span : {step.src, step.dst}) {
      const int64_t end = span.offset + span.len;
      if (span.region == Region::kScratch) {
        schedule.scratch = std::max(schedule.scratch, end);
      } else if (span.region == Region::kAccum) {
        schedule.accum = std::max(schedule.accum, end);
      }
    }
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Argument checks shared by both backends.
// ---------------------------------------------------------------------------

Status CheckCollectiveArgs(Collective kind, int world, int rank,
                           const Tensor& data, const Tensor& input, int root,
                           ReduceOp op) {
  const bool has_input = kind == Collective::kAllGather ||
                         kind == Collective::kReduceScatter ||
                         kind == Collective::kGather;
  const bool has_root = kind == Collective::kBroadcast ||
                        kind == Collective::kReduce ||
                        kind == Collective::kGather;
  if (kind == Collective::kBarrier) return Status::OK();
  if (has_input && (!input.defined() || !input.is_contiguous())) {
    return Status::InvalidArgument("input must be defined and contiguous");
  }
  if (has_root && (root < 0 || root >= world)) {
    return Status::InvalidArgument("root " + std::to_string(root) +
                                   " outside [0, world)");
  }
  if (kind == Collective::kGather && rank != root) return Status::OK();
  const char* what = has_input ? "output" : "tensor";
  if (!data.defined() || !data.is_contiguous()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be defined and contiguous");
  }
  if (has_input) {
    const bool scatter = kind == Collective::kReduceScatter;
    const int64_t big = scatter ? input.numel() : data.numel();
    const int64_t small = scatter ? data.numel() : input.numel();
    if (big != small * world) {
      return Status::InvalidArgument(
          std::string(scatter ? "input" : "output") + " numel " +
          std::to_string(big) + " != " + (scatter ? "output" : "input") +
          " numel * world (" + std::to_string(small * world) + ")");
    }
    if (data.dtype() != input.dtype()) {
      return Status::InvalidArgument(
          std::string("output dtype ") + DTypeName(data.dtype()) +
          " != input dtype " + DTypeName(input.dtype()));
    }
  }
  if (Reduces(kind) && data.dtype() == DType::kFloat16 &&
      (kind != Collective::kAllReduce || op != ReduceOp::kSum)) {
    return Status::InvalidArgument(
        std::string("float16 ") + CollectiveName(kind) + " with " +
        ReduceOpName(op) + " is unsupported (float16 reduces only as an " +
        "all-reduce sum, accumulated in fp32)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Local steps, shared by both executors.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
T Combine(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kSum:
      return static_cast<T>(a + b);
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
/// algorithm funnels through. Float/double sum and max dispatch into the
/// SIMD layer (bit-exact at every vector width, see common/vec.h); the
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

}  // namespace

template <typename T>
void RunLocalStep(const Step& step, ReduceOp op,
                  const RankBuffers<T>& buffers, int64_t begin, int64_t end) {
  const int64_t len = end - begin;
  if (step.dst.region == Region::kAccum) {
    // fp16 all-reduce: acc += float(half), one rank per step.
    if constexpr (std::is_same_v<T, uint16_t>) {
      float* acc = buffers.accum + step.dst.offset + begin;
      const uint16_t* src = buffers.Read(step.src) + begin;
      // ddplint: allow(raw-elementwise-loop) half bits convert through
      // fp32 per element; no packed fp16 arithmetic in the vec layer
      for (int64_t i = 0; i < len; ++i) acc[i] += HalfBitsToFloat32(src[i]);
    }
    return;
  }
  T* dst = buffers.Write(step.dst) + begin;
  if (step.src.region == Region::kAccum) {
    if constexpr (std::is_same_v<T, uint16_t>) {
      const float* acc = buffers.accum + step.src.offset + begin;
      // ddplint: allow(raw-elementwise-loop) half bits convert through
      // fp32 per element; no packed fp16 arithmetic in the vec layer
      for (int64_t i = 0; i < len; ++i) dst[i] = Float32ToHalfBits(acc[i]);
    }
    return;
  }
  const T* src = buffers.Read(step.src) + begin;
  if (step.kind == StepKind::kCopy) {
    CopySpan(dst, src, len);
  } else {
    CombineSpan(op, dst, src, len);
  }
}

#define DDPKIT_INSTANTIATE_EXECUTOR_TYPE(T)                                \
  template void RunLocalStep<T>(const Step&, ReduceOp,                     \
                                const RankBuffers<T>&, int64_t, int64_t);
DDPKIT_INSTANTIATE_EXECUTOR_TYPE(float)
DDPKIT_INSTANTIATE_EXECUTOR_TYPE(double)
DDPKIT_INSTANTIATE_EXECUTOR_TYPE(int64_t)
DDPKIT_INSTANTIATE_EXECUTOR_TYPE(uint8_t)
DDPKIT_INSTANTIATE_EXECUTOR_TYPE(uint16_t)
#undef DDPKIT_INSTANTIATE_EXECUTOR_TYPE

}  // namespace ddpkit::comm
