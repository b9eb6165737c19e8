// In-memory span tracing for the benchmark's traced run.
//
// A span records one call into a layer's public function: its name, start
// and end (seconds on the steady clock since the tracer was created), the
// span that caused it, the round it belongs to, and the thread that ran
// it. Spans stay in memory and are written out once, at the end, as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Parents are explicit ids, not inferred from time containment: the
// benchmark replays a round's layer calls right after RealFleet::step (or
// FleetClient::round) returns and links them to that step's span, so a
// child may lie outside its parent's interval. Self time is therefore the
// parent's duration minus the length its children's intervals cover
// (their union, so concurrent children on several threads count once).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 = root
  int64_t round = -1;   ///< -1 = outside any round
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int thread = 0;

  [[nodiscard]] double seconds() const noexcept { return end - start; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since construction.
  [[nodiscard]] double now() const;
  [[nodiscard]] int64_t next_id() { return next_id_.fetch_add(1); }
  void record(Span span);
  /// Snapshot of every recorded span, in recording order.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Write the spans as Chrome trace-event JSON; throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  int64_t epoch_ns_ = 0;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: starts on construction, records on destruction. A null
/// tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1,
             int64_t round = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, for children (-1 when tracing is off).
  [[nodiscard]] int64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Length of the union of [start, end) intervals.
[[nodiscard]] double covered_seconds(
    std::vector<std::pair<double, double>> intervals);

/// Direct children of `parent`.
[[nodiscard]] std::vector<Span> children_of(const std::vector<Span>& spans,
                                            int64_t parent);

/// The parent's duration minus the length its direct children cover.
[[nodiscard]] double self_seconds(const std::vector<Span>& spans,
                                  const Span& parent);

}  // namespace perfbench
