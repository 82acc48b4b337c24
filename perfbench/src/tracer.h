// In-memory span recorder for the traced run. Spans are opened by the
// benchmark around each call it makes into a library layer (nothing inside
// the library is instrumented); each records its name, start, end, parent
// span and request id. They stay in memory until the run ends, then
// self_ms_per_request() summarises them and write_chrome_json() dumps them
// as Chrome trace-event JSON. Single-threaded by design: only the benchmark's
// own thread opens spans, so spans nest strictly.
#pragma once

#include <cassert>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name; ///< "<layer>.<call>"; a string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int64_t request = -1; ///< -1 for set-up spans
  };

  /// Scoped span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, int64_t request) : t_(t) {
      if (t_ != nullptr) index_ = t_->open(name, request);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span for `request` (-1: set-up) that closes at end of scope.
  Scope span(const char* name, int64_t request = -1) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Median over traced requests of each layer's self time in one request:
  /// a span's duration minus the time its child spans cover, summed per
  /// layer (the name's prefix before '.').
  std::map<std::string, double> self_ms_per_request() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<int64_t, std::map<std::string, double>> per_request;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request < 0) continue;
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      per_request[s.request][layer] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
    std::map<std::string, std::vector<double>> samples;
    for (const auto& [req, layers] : per_request) {
      for (const auto& [layer, ms] : layers) samples[layer].push_back(ms);
    }
    std::map<std::string, double> out;
    for (const auto& [layer, v] : samples) {
      // A layer absent from some requests still spent 0 ms in them.
      std::vector<double> all = v;
      all.resize(per_request.size(), 0.0);
      out[layer] = median(all);
    }
    return out;
  }

  /// Dump every span as a Chrome trace-event file (opens in any trace
  /// viewer), with `header` key/values as otherData. Returns false when the
  /// file cannot be written.
  bool write_chrome_json(
      const std::string& path,
      const std::map<std::string, std::string>& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\": {");
    const char* sep = "";
    for (const auto& [k, v] : header) {
      std::fprintf(f, "%s\"%s\": \"%s\"", sep, k.c_str(), v.c_str());
      sep = ", ";
    }
    std::fprintf(f, "},\n\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %lld, "
                   "\"parent\": %d}}",
                   i == 0 ? "" : ",\n", s.name, s.start_ns * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.request), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 epoch_)
        .count();
  }
  int open(const char* name, int64_t request) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    assert(!stack_.empty() && stack_.back() == index);
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

} // namespace perfbench
