#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

namespace {

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Small stable index of the calling thread (0 = first thread that asked).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

double Tracer::now() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << std::setprecision(17) << "{\"displayTimeUnit\":\"ms\","
      << "\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << s.seconds() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"round\":" << s.round << "}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("short write of trace " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       int64_t round)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    span_.id = -1;
    return;
  }
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.round = round;
  span_.name = name;
  span_.thread = thread_index();
  span_.start = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  tracer_->record(std::move(span_));
}

double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > hi) {
      if (open) total += hi - lo;
      lo = s;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) total += hi - lo;
  return total;
}

std::vector<Span> children_of(const std::vector<Span>& spans,
                              int64_t parent) {
  std::vector<Span> out;
  for (const Span& s : spans)
    if (s.parent == parent) out.push_back(s);
  return out;
}

double self_seconds(const std::vector<Span>& spans, const Span& parent) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& c : children_of(spans, parent.id))
    iv.emplace_back(c.start, c.end);
  return parent.seconds() - covered_seconds(std::move(iv));
}

}  // namespace perfbench
