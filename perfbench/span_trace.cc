#include "span_trace.h"

#include <time.h>

#include <cstdio>
#include <map>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open_spans;

}  // namespace

double MonoSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

SpanTrace::SpanTrace(bool enabled) : enabled_(enabled) {
  // Reserve up front so a growing vector never lands a copy inside a span.
  if (enabled_) spans_.reserve(1 << 18);
}

int SpanTrace::Begin(const char* name) {
  const int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  int token;
  {
    ddpkit::MutexLock lock(&mu_);
    token = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, MonoSeconds(), 0.0, parent, step_});
  }
  t_open_spans.push_back(token);
  return token;
}

void SpanTrace::End(int token) {
  const double now = MonoSeconds();
  if (!t_open_spans.empty() && t_open_spans.back() == token) {
    t_open_spans.pop_back();
  }
  ddpkit::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(token)].end = now;
}

bool SpanTrace::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  ddpkit::MutexLock lock(&mu_);
  std::map<std::string, int> ids;
  std::vector<const char*> names;
  for (const Span& s : spans_) {
    if (ids.emplace(s.name, static_cast<int>(names.size())).second) {
      names.push_back(s.name);
    }
  }
  std::fprintf(f, "{\"names\": [");
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names[i]);
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%d, %.9f, %.9f, %d, %lld]", i == 0 ? "" : ",",
                 ids[s.name], s.start, s.end, s.parent,
                 static_cast<long long>(s.step));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
