// Benchmark plumbing shared by the four workloads: the wall clock, the
// metric and correctness tallies, the benchmark-owned span log, and the
// wall-stamping trace sink that splits engine wall time into simplex ops
// and vgpu kernels.
//
// Nothing here reaches into the solver: spans wrap calls into the public
// entry points from outside, and the WallSink only consumes the event
// stream an engine already emits through SolverOptions::trace_sink.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace e2e {

/// Monotonic wall seconds since an arbitrary process-wide epoch.
inline double now_s() {
  static const gs::WallTimer epoch;
  return epoch.seconds();
}

/// Median of a sample (0 for an empty one); the sample is copied.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they are reported.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness accounting: every checked operation is one attempt; a
/// failed check is one failure, kept with its reason for the report.
class Tally {
 public:
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (reasons_.size() < 20) reasons_.push_back(what);
    }
    return ok;
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// One benchmark-owned span: a call into a layer, timed from outside.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;   ///< index into the log, -1 for a root
  std::uint64_t request = 0;  ///< service ticket id; 0 outside the service
};

/// In-memory span log. Disabled (the untraced run) it records nothing and
/// costs one branch per span; enabled it keeps every span until the
/// benchmark writes it out at exit.
class SpanLog {
 public:
  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int64_t open(std::string_view name, std::uint64_t request) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::string(name), now_s(), 0.0, parent, request});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void set_request(std::int64_t idx, std::uint64_t request) {
    spans_[static_cast<std::size_t>(idx)].request = request;
  }
  void close(std::int64_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_s();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Total wall seconds and count of the spans called `name`.
  [[nodiscard]] std::pair<double, std::size_t> total(
      std::string_view name) const {
    double s = 0.0;
    std::size_t n = 0;
    for (const SpanRecord& r : spans_) {
      if (r.name != name) continue;
      s += r.end - r.start;
      ++n;
    }
    return {s, n};
  }
  /// Self wall seconds per span name: duration minus direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& r : spans_) {
      if (r.parent >= 0) {
        child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span on a SpanLog; a no-op when the log is disabled.
class Span {
 public:
  Span(SpanLog& log, std::string_view name, std::uint64_t request = 0)
      : log_(log), idx_(log.enabled() ? log.open(name, request) : -1) {}
  ~Span() {
    if (idx_ >= 0) log_.close(idx_);
  }
  /// Tag the span with the request it turned out to serve.
  void set_request(std::uint64_t request) {
    if (idx_ >= 0) log_.set_request(idx_, request);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  std::int64_t idx_;
};

/// Trace sink that stamps every engine event with the wall clock. Kernel
/// and transfer slices are emitted right after their functional body ran,
/// so the wall gap that ends at such an event is charged to that kernel
/// (or copy); device-engine op spans (category "op") are timed begin to
/// end on both clocks. What an op span covers beyond its kernels is the
/// op's own host-side control code.
class WallSink final : public gs::trace::TraceSink {
 public:
  struct OpTotals {
    double wall = 0.0;
    double sim = 0.0;
  };

  void emit(gs::trace::TraceEvent event) override {
    const double t = now_s();
    const double gap = t - last_;
    last_ = t;
    using gs::trace::EventPhase;
    if (event.phase == EventPhase::kComplete) {
      if (event.category == "kernel" && event.pid == gs::trace::kDevicePid) {
        kernel_wall_[event.name] += gap;
      } else if (event.category == "transfer") {
        transfer_wall_ += gap;
      }
    } else if (event.phase == EventPhase::kBegin) {
      const bool device_op = event.category == "op" &&
                             event.pid == gs::trace::kDevicePid;
      open_.push_back({device_op ? event.name : std::string(), t, event.ts});
    } else if (event.phase == EventPhase::kEnd && !open_.empty()) {
      const Open o = open_.back();
      open_.pop_back();
      if (!o.op.empty()) {
        OpTotals& tot = ops_[o.op];
        tot.wall += t - o.wall;
        tot.sim += event.ts - o.sim;
      }
    }
  }

  /// Re-arm the gap clock before a solve so nothing outside it is charged.
  void arm() noexcept { last_ = now_s(); }

  [[nodiscard]] const std::map<std::string, double>& kernel_wall() const {
    return kernel_wall_;
  }
  [[nodiscard]] const std::map<std::string, OpTotals>& ops() const {
    return ops_;
  }
  [[nodiscard]] double transfer_wall() const noexcept {
    return transfer_wall_;
  }

 private:
  struct Open {
    std::string op;  ///< empty for non-op spans (solve, phase, iteration)
    double wall = 0.0;
    double sim = 0.0;
  };
  double last_ = 0.0;
  std::vector<Open> open_;
  std::map<std::string, double> kernel_wall_;
  std::map<std::string, OpTotals> ops_;
  double transfer_wall_ = 0.0;
};

}  // namespace e2e
