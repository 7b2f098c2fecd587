#include "trace.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  // A child inherits its parent's request id unless it names its own.
  s.request = (request == 0 && s.parent >= 0) ? spans_[s.parent].request
                                              : request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("trace: spans closed out of order");
  }
  open_.pop_back();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  const std::string want = name;
  for (const SpanRecord& s : spans_) {
    if (s.end_ns != 0 && want == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<SpanSummary> Tracer::Summarize() const {
  // Children of one parent run one after another on the client thread,
  // so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-6;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

void Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write " + path);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("trace: cannot write " + path);
  }
}

}  // namespace perfbench
