#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

/// CLOCK_MONOTONIC in seconds. Every process on the host reads the same
/// clock, so stamps from different ranks (and from run.py's
/// time.monotonic()) are directly comparable.
double MonoSeconds();

/// In-memory span recorder for the traced run. Spans are opened around the
/// benchmark's own calls into each ddpkit layer (never inside the library),
/// carry the training step they belong to (the same id on every rank), and
/// are written out once, when the worker exits. A disabled trace records
/// nothing and costs one branch per span.
///
/// Parents are tracked per thread; one SpanTrace is active per process.
class SpanTrace {
 public:
  explicit SpanTrace(bool enabled);

  bool enabled() const { return enabled_; }

  /// Step id stamped on spans opened from now on (-1 = outside any step,
  /// e.g. set-up).
  void set_step(int64_t step) { step_ = step; }

  /// Opens a span named `name` (must have static storage duration) as a
  /// child of this thread's innermost open span. Returns its token, or -1
  /// when disabled.
  int Begin(const char* name) EXCLUDES(mu_);
  void End(int token) EXCLUDES(mu_);

  /// Writes {"names": [...], "spans": [[name, start_s, end_s, parent,
  /// step], ...]} to `path`. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const EXCLUDES(mu_);

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int64_t step;
  };

  const bool enabled_;
  int64_t step_ = -1;
  mutable ddpkit::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// RAII span; a no-op on a null or disabled trace.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name)
      : trace_(trace),
        token_(trace != nullptr && trace->enabled() ? trace->Begin(name)
                                                    : -1) {}
  ~ScopedSpan() {
    if (token_ >= 0) trace_->End(token_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int token_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
