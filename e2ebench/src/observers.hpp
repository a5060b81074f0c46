// The one place in the benchmark that touches the observer attach points
// of SolverOptions (trace_sink, checker, analyzer, recorder, profiler,
// metrics, telemetry). Workloads say *which* observers a solve carries;
// this file owns the observer objects, wires them into the options, and
// turns what they saw into verdicts and counts. When the attach points
// change shape, this file is the only one to edit.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "metrics/metrics.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "simplex/types.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_sink.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"

namespace e2e {

/// The seven engine observers, as a bit mask.
enum Observer : unsigned {
  kNoObserver = 0,
  kCheck = 1u << 0,
  kAnalyze = 1u << 1,
  kRecord = 1u << 2,
  kProfile = 1u << 3,
  kMetrics = 1u << 4,
  kTelemetry = 1u << 5,
  kTrace = 1u << 6,
};

/// Short names used in metric names (observe.<name>_x).
inline constexpr std::pair<Observer, std::string_view> kObserverNames[] = {
    {kCheck, "check"},     {kAnalyze, "analyze"},     {kRecord, "record"},
    {kProfile, "profile"}, {kMetrics, "metrics"},     {kTelemetry, "telemetry"},
    {kTrace, "trace"},
};

/// Fresh observer objects for one solve. `wall` (optional) is the
/// benchmark's own wall-stamping sink, the solve's trace sink unless the
/// trace observer takes that place; an attached profiler forwards to it.
class Observers {
 public:
  explicit Observers(unsigned mask = kNoObserver, WallSink* wall = nullptr)
      : mask_(mask), wall_(wall) {}
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// `base` with this set's pointers attached.
  [[nodiscard]] gs::simplex::SolverOptions attach(
      gs::simplex::SolverOptions base) {
    if (mask_ & kTrace) {
      base.trace_sink = &chrome_;
    } else if (wall_ != nullptr) {
      base.trace_sink = wall_;
    }
    if (mask_ & kCheck) base.checker = &checker_;
    if (mask_ & kAnalyze) base.analyzer = &capture_;
    if (mask_ & kRecord) base.recorder = &recorder_;
    if (mask_ & kProfile) base.profiler = &profiler_;
    if (mask_ & kMetrics) base.metrics = &registry_;
    if (mask_ & kTelemetry) base.telemetry = &telemetry_;
    return base;
  }

  /// Checker / analyzer verdicts (true when not attached).
  [[nodiscard]] bool checker_clean() const {
    return !(mask_ & kCheck) || checker_.clean();
  }
  [[nodiscard]] bool analyzer_clean() {
    return !(mask_ & kAnalyze) || gs::vgpu::analyze::analyze(capture_)
                                      .gate_clean();
  }

  /// The profiler's kernel totals reconcile bit-exactly with the solve's
  /// DeviceStats (true when not attached).
  [[nodiscard]] bool profile_reconciles(
      const gs::vgpu::DeviceStats& ds) const {
    if (!(mask_ & kProfile)) return true;
    const gs::profile::ProfileReport rep = profiler_.report();
    if (rep.kernel_seconds() != ds.kernel_seconds) return false;
    if (rep.kernels.size() != ds.per_kernel.size()) return false;
    for (const auto& [name, krec] : ds.per_kernel) {
      const gs::profile::KernelProfile* kp = rep.find_kernel(name);
      if (kp == nullptr || kp->seconds != krec.sim_seconds ||
          kp->calls != krec.launches) {
        return false;
      }
    }
    return true;
  }

  /// Share of modeled kernel time in launch-bound kernels.
  [[nodiscard]] double launch_bound_fraction() const {
    return (mask_ & kProfile) ? profiler_.report().launch_bound_fraction
                              : 0.0;
  }

  /// Serialized decision-log size and trace event count.
  [[nodiscard]] std::size_t record_bytes() const {
    if (!(mask_ & kRecord)) return 0;
    std::ostringstream os;
    recorder_.recording().write(os);
    return os.str().size();
  }
  [[nodiscard]] std::size_t trace_events() const {
    return (mask_ & kTrace) ? chrome_.events().size() : 0;
  }

 private:
  unsigned mask_;
  WallSink* wall_;
  gs::trace::ChromeTraceSink chrome_;
  gs::vgpu::check::Checker checker_;
  gs::vgpu::analyze::CaptureLog capture_;
  gs::record::Recorder recorder_;
  gs::profile::Profiler profiler_;
  gs::metrics::MetricsRegistry registry_;
  gs::telemetry::Telemetry telemetry_;
};

}  // namespace e2e
