// rvma_metrics: analysis CLI for the metrics documents every bench emits
// via --metrics=<path> (schema rvma-metrics-v1).
//
// Subcommands:
//   summarize <file>                 counters, gauges, histogram
//                                    percentile tables, timeseries
//                                    overview
//   diff <a> <b> [--rel-tol=X]       side-by-side comparison; prints every
//                                    flagged instrument, exits 1 when any
//                                    difference exceeds the tolerance
//   check <file> [name...]           validate schema + required
//        [--need-histogram]          instruments; exit code = number of
//        [--need-timeseries]         failed checks (CI gate)
#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics_io.hpp"

namespace {

using namespace rvma;

int usage() {
  std::fprintf(stderr,
               "usage: rvma_metrics <command> ...\n"
               "  summarize <file>\n"
               "  diff <a> <b> [--rel-tol=X]\n"
               "  check <file> [name...] [--need-histogram] "
               "[--need-timeseries]\n");
  return 2;
}

bool load(const std::string& path, obs::MetricsDoc* doc) {
  std::string error;
  if (!obs::read_metrics_file(path, doc, &error)) {
    std::fprintf(stderr, "rvma_metrics: %s\n", error.c_str());
    return false;
  }
  return true;
}

int cmd_summarize(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  obs::MetricsDoc doc;
  if (!load(args[0], &doc)) return 2;
  std::printf("metrics: %s\n", args[0].c_str());
  obs::print_metrics_summary(doc, stdout);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  obs::DiffOptions opts;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (arg.rfind("--rel-tol=", 0) == 0) {
      // A tolerance that silently parsed as 0 (or went negative) would
      // flag every difference, so anything but a plain non-negative
      // number is a usage error.
      const char* first = arg.data() + 10;
      const char* last = arg.data() + arg.size();
      double tol = -1.0;
      const auto [ptr, ec] = std::from_chars(first, last, tol);
      if (ec != std::errc{} || ptr != last || first == last || !(tol >= 0)) {
        std::fprintf(stderr, "bad --rel-tol value \"%s\"\n", first);
        return 2;
      }
      opts.rel_tol = tol;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return usage();
  obs::MetricsDoc a, b;
  if (!load(files[0], &a) || !load(files[1], &b)) return 2;
  std::printf("diff: %s vs %s\n", files[0].c_str(), files[1].c_str());
  const int flagged = obs::print_metrics_diff(a, b, opts, stdout);
  return flagged == 0 ? 0 : 1;
}

int cmd_check(const std::vector<std::string>& args) {
  obs::CheckOptions opts;
  std::string file;
  for (const std::string& arg : args) {
    if (arg == "--need-histogram") {
      opts.need_histogram = true;
    } else if (arg == "--need-timeseries") {
      opts.need_timeseries = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else if (file.empty()) {
      file = arg;
    } else {
      opts.required.push_back(arg);
    }
  }
  if (file.empty()) return usage();
  obs::MetricsDoc doc;
  if (!load(file, &doc)) return 2;
  const int failures = obs::check_metrics_doc(doc, opts, stdout);
  if (failures == 0) {
    std::printf("%s: OK (%zu counters, %zu gauges, %zu histograms, "
                "%zu timeseries)\n",
                file.c_str(), doc.totals.counters.size(),
                doc.totals.gauges.size(), doc.totals.histograms.size(),
                doc.timeseries.size());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "summarize") return cmd_summarize(args);
  if (cmd == "diff") return cmd_diff(args);
  if (cmd == "check") return cmd_check(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return usage();
}
