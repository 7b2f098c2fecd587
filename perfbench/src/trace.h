// Span tracing for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions; the library itself carries no tracing.
// Each span records its name, start, end, parent span and request id. Spans
// stay in memory and are written out once, when the run ends. The client
// is single-threaded, so one stack of open spans suffices.
//
// With tracing disabled (the untraced run, and the untraced phase of the
// traced run) opening a span costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // Static string: a layer's public call.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     // Index of the enclosing span, -1 for a root.
  uint64_t request = 0;    // Client request the span belongs to.
};

// Per-name aggregate. Self time is the span's duration minus the time
// its child spans cover.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Returns the span's index, or -1 when tracing is off.
  int32_t Open(const char* name, uint64_t request);
  void Close(int32_t index);

  // Durations in seconds of every closed span named `name`.
  std::vector<double> Durations(const char* name) const;
  std::vector<SpanSummary> Summarize() const;
  // Writes every span as one JSON array of
  // {"name","start_ns","end_ns","parent","request"} objects.
  void WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

Tracer& GlobalTracer();

// RAII span on the global tracer.
class Span {
 public:
  Span(const char* name, uint64_t request = 0)
      : index_(GlobalTracer().Open(name, request)) {}
  ~Span() {
    if (index_ >= 0) GlobalTracer().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
