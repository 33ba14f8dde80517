// In-memory span recorder for the traced run.
//
// The benchmark records one span around each public library call it makes,
// from its own thread; nothing inside the library is instrumented.  A span
// holds its name, start, end, parent and job id.  Spans stay in memory and
// are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_ms = 0.0;  ///< since the recorder was created
    double end_ms = 0.0;
    int parent = -1;        ///< index into spans(), -1 for a root
    std::uint64_t job = 0;  ///< 0 outside any job
  };

  Spans() : origin_(Clock::now()) {}

  /// Opens a span nested under the innermost open span; returns its index.
  int open(std::string name, std::uint64_t job);
  /// Closes span `index`, which must be the innermost open span.
  void close(int index);
  /// Records an already finished span (e.g. submit → completion of a job
  /// that ran on other threads) under the innermost open span.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          std::uint64_t job);

  double duration_ms(int index) const;
  /// Duration minus the part of [start, end] covered by child spans.
  double self_ms(int index) const;

  /// Writes every span (with its self time) as one JSON document.
  void write_json(const std::string& path) const;

 private:
  double since_origin_ms(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name, std::uint64_t job)
      : spans_(spans),
        index_(spans != nullptr ? spans->open(std::move(name), job) : -1) {}
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes early and returns the span's duration in ms (0 when untraced).
  double close() {
    if (spans_ == nullptr || closed_) return closed_ms_;
    spans_->close(index_);
    closed_ = true;
    closed_ms_ = spans_->duration_ms(index_);
    return closed_ms_;
  }

 private:
  Spans* spans_;
  int index_;
  bool closed_ = false;
  double closed_ms_ = 0.0;
};

}  // namespace perfbench
