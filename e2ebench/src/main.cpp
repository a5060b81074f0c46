// e2ebench: the end-to-end benchmark of the revised-simplex reproduction.
//
//   e2ebench --workload <dense-sweep|sparse-basis|service-mix|observed>
//            [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//            [--false-family] [--spans-out FILE]
//
// One run sets the workload up several times (setup_s is the median),
// solves reference answers, then repeats timed passes for --seconds;
// wall_s is the median pass. With --trace 1 untraced and
// traced passes alternate and the per-layer metrics are reported
// instead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 iff every checked answer was right.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "observers.hpp"
#include "support/error.hpp"
#include "workload.hpp"

namespace {

using namespace e2e;

/// Set-up repetitions: at least kSetupReps, more while they take less
/// than kSetupSeconds in total (cheap set-ups need more samples).
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupMaxReps = 50;
constexpr double kSetupSeconds = 0.25;

/// Kernels whose wall time the traced run reports by name: the dense
/// explicit-inverse hot loop and the sparse product-form path. Everything
/// else is summed into "other".
constexpr std::string_view kNamedKernels[] = {
    "price_btran",   "price_select", "ftran_ratio", "pivot_apply",
    "price_reduced", "sparse_btran", "eta_apply",   "eta_snapshot",
};
constexpr std::string_view kOps[] = {"price", "ftran", "ratio", "update",
                                     "refactor"};
constexpr std::string_view kEngines[] = {
    "device-revised", "device-revised-float", "host-revised", "tableau",
    "sparse-revised", "dual-revised",         "batch",
};
constexpr std::string_view kRoutes[] = {"host", "device", "batch",
                                        "warm-hit", "warm-basis"};
constexpr std::string_view kOracles[] = {"explicit-inverse", "product-form"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric, same names on every workload.
void emit_layers(const LayerCounts& c, const SpanLog& spans,
                 std::size_t setups, const WallSink& wall,
                 double trace_overhead_x, MetricSet& out) {
  const double gen_s = spans.total("lp.generate").first;
  const auto [sf_s, sf_n] = spans.total("lp.to_standard_form");
  out.add("lp.generate_ms", 1e3 * ratio(gen_s, double(setups)), "ms");
  out.add("lp.standard_form_us", 1e6 * ratio(sf_s, double(sf_n)), "us");

  out.add("vgpu.launches", c.launches, "count");
  out.add("vgpu.launches_per_iter", ratio(c.launches, c.device_iterations),
          "count/iter");
  out.add("vgpu.kernel_sim_ms", 1e3 * c.kernel_sim_s, "ms");
  out.add("vgpu.transfer_sim_ms", 1e3 * c.transfer_sim_s, "ms");
  out.add("vgpu.h2d_bytes", c.h2d_bytes, "B");
  out.add("vgpu.d2h_bytes", c.d2h_bytes, "B");
  out.add("vgpu.flops_per_byte", ratio(c.flops, c.bytes), "flop/B");
  out.add("vgpu.launch_bound_frac", c.launch_bound_frac, "frac");
  double other = 0.0;
  for (const auto& [name, s] : wall.kernel_wall()) {
    bool named = false;
    for (const std::string_view k : kNamedKernels) named |= name == k;
    if (!named) other += s;
  }
  for (const std::string_view k : kNamedKernels) {
    const auto it = wall.kernel_wall().find(std::string(k));
    out.add("vgpu.kernel_wall_ms." + std::string(k),
            it == wall.kernel_wall().end() ? 0.0 : 1e3 * it->second, "ms");
  }
  out.add("vgpu.kernel_wall_ms.other", 1e3 * other, "ms");
  out.add("vgpu.transfer_wall_ms", 1e3 * wall.transfer_wall(), "ms");
  out.add("vgpu.wall_per_sim", ratio(c.device_wall_s, c.device_sim_s),
          "s/s");

  out.add("simplex.iterations", c.iterations, "count");
  out.add("simplex.phase1_iterations", c.phase1_iterations, "count");
  for (const std::string_view e : kEngines) {
    const auto it = c.engine_wall_iters.find(std::string(e));
    const double v = it == c.engine_wall_iters.end()
                         ? 0.0
                         : 1e6 * ratio(it->second.first, it->second.second);
    out.add("simplex.wall_us_per_iter." + std::string(e), v, "us");
  }
  double op_wall = 0.0;
  for (const std::string_view op : kOps) {
    const auto it = wall.ops().find(std::string(op));
    const WallSink::OpTotals t =
        it == wall.ops().end() ? WallSink::OpTotals{} : it->second;
    op_wall += t.wall;
    out.add("simplex.op_wall_ms." + std::string(op), 1e3 * t.wall, "ms");
    out.add("simplex.op_sim_ms." + std::string(op), 1e3 * t.sim, "ms");
  }
  // 0 where no device op span was traced (service-mix, host-only runs).
  out.add("simplex.loop_self_frac",
          op_wall > 0.0 ? 1.0 - op_wall / c.device_wall_s : 0.0, "frac");

  out.add("basis.eta_count", c.eta_count, "count");
  out.add("basis.refactor_count", c.refactor_count, "count");
  for (const std::string_view o : kOracles) {
    for (const char* call :
         {"ftran_us", "btran_us", "update_us", "refactorize_ms"}) {
      const std::string key = std::string(o) + "." + call;
      const auto it = c.oracle.find(key);
      out.add("basis." + key, it == c.oracle.end() ? 0.0 : it->second,
              std::string(call).ends_with("_ms") ? "ms" : "us");
    }
  }

  for (const std::string_view r : kRoutes) {
    const auto it = c.routes.find(std::string(r));
    out.add("service.route." + std::string(r),
            it == c.routes.end() ? 0.0 : it->second, "count");
  }
  out.add("service.batch_rounds", c.batch_rounds, "count");
  out.add("service.batch_fill", c.batch_fill, "frac");
  out.add("service.warm_hit_frac", ratio(c.warm_hits, c.warm_lookups),
          "frac");
  out.add("service.warm_basis_useful_frac",
          ratio(c.warm_basis - c.warm_fallback, c.warm_basis), "frac");
  out.add("service.queue_p50_ms", c.queue_p50_ms, "ms");
  out.add("service.queue_p99_ms", c.queue_p99_ms, "ms");
  out.add("service.engine_p50_ms", c.engine_p50_ms, "ms");
  out.add("service.engine_p99_ms", c.engine_p99_ms, "ms");
  out.add("service.submit_us", c.submit_us, "us");
  out.add("service.drain_overhead_ms", c.drain_overhead_ms, "ms");
  out.add("service.rejected", c.rejected, "count");
  out.add("service.deadline_missed", c.deadline_missed, "count");

  for (const auto& [mask, name] : kObserverNames) {
    const auto it = c.observer_x.find(std::string(name));
    out.add("observe." + std::string(name) + "_x",
            it == c.observer_x.end() ? 0.0 : it->second, "x");
  }
  out.add("observe.trace_events", c.trace_events, "count");
  out.add("observe.record_bytes", c.record_bytes, "B");

  out.add("bench.trace_overhead_x", trace_overhead_x, "x");
}

void print_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void print_result(const Tally& tally, const MetricSet& metrics) {
  std::cout << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": ";
    print_json_number(std::cout, m.value);
    std::cout << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

void write_spans(const SpanLog& spans, const std::string& path) {
  std::ofstream out(path);
  out << "[";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"start\": ";
    print_json_number(out, s.start);
    out << ", \"end\": ";
    print_json_number(out, s.end);
    out << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "\n]\n";
}

/// Throws std::invalid_argument on anything it does not understand.
void parse_args(int argc, char** argv, Config& cfg, std::string& spans_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--false-family") {
      cfg.false_family = true;
    } else {
      throw std::invalid_argument(arg);
    }
  }
}

/// The eight largest (seconds, name) entries, in ms.
void print_top(const char* title,
               std::vector<std::pair<double, std::string>> entries) {
  std::sort(entries.rbegin(), entries.rend());
  std::cout << title;
  for (std::size_t i = 0; i < entries.size() && i < 8; ++i) {
    std::printf(" %s %.1f ms;", entries[i].second.c_str(),
                1e3 * entries[i].first);
  }
  std::printf("\n");
}

int usage() {
  std::cerr << "usage: e2ebench --workload <dense-sweep|sparse-basis|"
               "service-mix|observed> [--seed N] [--seconds S] "
               "[--trace 0|1] [--tiny] [--false-family] [--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string spans_out;
  try {
    parse_args(argc, argv, cfg, spans_out);
  } catch (const std::exception&) {
    return usage();
  }
  std::unique_ptr<Workload> w;
  if (cfg.workload == "dense-sweep") w = make_dense_sweep(cfg);
  if (cfg.workload == "sparse-basis") w = make_sparse_basis(cfg);
  if (cfg.workload == "service-mix") w = make_service_mix(cfg);
  if (cfg.workload == "observed") w = make_observed(cfg);
  if (!w) return usage();

  try {
    SpanLog spans;  // records only in the traced run
    spans.enable(cfg.trace);
    SpanLog off;    // untraced passes of a traced run

    std::vector<double> setup_s;
    const double t_setup = now_s();
    while (setup_s.size() < kSetupReps ||
           (setup_s.size() < kSetupMaxReps &&
            now_s() - t_setup < kSetupSeconds)) {
      const double t0 = now_s();
      w->setup(spans);
      setup_s.push_back(now_s() - t0);
    }
    w->reference(spans);

    Tally tally;
    std::vector<double> bare_s, traced_s;
    double sim_s = std::numeric_limits<double>::quiet_NaN();
    double rss_mb = 0.0;
    LayerCounts layers;
    WallSink wall;
    // Passes repeat while one more (as long as the last) still fits.
    const double t_start = now_s();
    double last = 0.0;
    while (bare_s.empty() || now_s() - t_start + last <= cfg.seconds) {
      const double t_pass = now_s();
      LayerCounts bare_layers;
      const double sim = w->pass(off, nullptr, tally, bare_layers);
      bare_s.push_back(now_s() - t_pass);
      // Later passes repeat the same work, but the allocator's free lists
      // then make the high-water mark depend on run length and layout.
      if (bare_s.size() == 1) rss_mb = peak_rss_mb();
      // The modeled clock is deterministic: every pass must read the same.
      if (std::isnan(sim_s)) sim_s = sim;
      tally.check(sim == sim_s, "modeled seconds differ between passes");
      if (cfg.trace) {
        layers = LayerCounts{};
        wall = WallSink{};
        const double t1 = now_s();
        const double traced_sim = w->pass(spans, &wall, tally, layers);
        traced_s.push_back(now_s() - t1);
        tally.check(traced_sim == sim_s, "tracing changed the modeled clock");
      }
      last = now_s() - t_pass;
    }

    MetricSet metrics;
    if (cfg.trace) {
      w->traced_extras(spans, tally, layers);
      emit_layers(layers, spans, setup_s.size(), wall,
                  ratio(median(traced_s), median(bare_s)), metrics);
      if (!spans_out.empty()) write_spans(spans, spans_out);
    } else {
      metrics.add("setup_s", median(setup_s), "s");
      metrics.add("wall_s", median(bare_s), "s");
      metrics.add("peak_rss_mb", rss_mb, "MB");
      metrics.add("sim_s", sim_s, "s");
    }

    // Human-readable report: everything above the final JSON line.
    std::cout << "workload " << cfg.workload << " seed " << cfg.seed
              << (cfg.tiny ? " (tiny)" : "") << ": " << bare_s.size()
              << " untraced pass(es)";
    if (cfg.trace) std::cout << ", " << traced_s.size() << " traced";
    std::cout << "\nspans recorded: " << spans.spans().size() << "\n";
    const auto [lo, hi] = std::minmax_element(bare_s.begin(), bare_s.end());
    std::printf("untraced pass wall: min %.4f median %.4f max %.4f s;", *lo,
                median(bare_s), *hi);
    for (const double p : bare_s) std::printf(" %.3f", p);
    std::printf("\n");
    if (cfg.trace) {
      // Where the traced run's wall time went, by benchmark span.
      std::vector<std::pair<double, std::string>> self;
      for (const auto& [name, sec] : spans.self_seconds()) {
        self.emplace_back(sec, name);
      }
      std::vector<std::pair<double, std::string>> kernels;
      for (const auto& [name, sec] : wall.kernel_wall()) {
        kernels.emplace_back(sec, name);
      }
      print_top("span self wall:", self);
      print_top("kernel wall (last traced pass):", kernels);
    }
    w->describe(std::cout);
    MetricSet e2e_extra;
    w->end_to_end(e2e_extra);
    std::cout << "end-to-end:\n";
    const auto line = [](const Metric& m) {
      std::printf("  %-28s %.17g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    };
    if (!cfg.trace) {
      for (const Metric& m : metrics.all()) line(m);
    }
    line({"fail_frac", ratio(double(tally.failed()),
                             double(tally.attempted())), "frac"});
    for (const Metric& m : e2e_extra.all()) line(m);
    std::fflush(stdout);
    for (const std::string& r : tally.reasons()) {
      std::cout << "FAILED: " << r << "\n";
    }
    print_result(tally, metrics);
    return tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
