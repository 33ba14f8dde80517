#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ptwgr/support/json.h"

namespace perfbench {

double Spans::since_origin_ms(Clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - origin_).count();
}

int Spans::open(std::string name, std::uint64_t job) {
  const int index = static_cast<int>(spans_.size());
  const double now = since_origin_ms(Clock::now());
  spans_.push_back(
      Span{std::move(name), now, now, open_.empty() ? -1 : open_.back(), job});
  open_.push_back(index);
  return index;
}

void Spans::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ms =
      since_origin_ms(Clock::now());
}

int Spans::add(std::string name, Clock::time_point start,
               Clock::time_point end, std::uint64_t job) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), since_origin_ms(start),
                        since_origin_ms(end),
                        open_.empty() ? -1 : open_.back(), job});
  return index;
}

double Spans::duration_ms(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end_ms - s.start_ms;
}

double Spans::self_ms(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> children;
  for (const Span& c : spans_) {
    if (c.parent != index) continue;
    children.emplace_back(std::max(c.start_ms, s.start_ms),
                          std::min(c.end_ms, s.end_ms));
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = s.start_ms;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (s.end_ms - s.start_ms) - covered;
}

void Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": " << ptwgr::json::quoted(s.name)
        << ", \"start_ms\": " << ptwgr::json::number(s.start_ms)
        << ", \"end_ms\": " << ptwgr::json::number(s.end_ms)
        << ", \"self_ms\": "
        << ptwgr::json::number(self_ms(static_cast<int>(i)))
        << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
