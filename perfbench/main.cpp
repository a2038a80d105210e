// upanns_perfbench — one run of one benchmark workload.
//
//   upanns_perfbench --workload offline_batch|online_multihost|drift_writes
//                    --seed N --seconds S --trace 0|1
//
// Prints a provenance line, the workload's notes and its simulated-output
// digest, then as the last line one JSON object with `correct`, `attempted`,
// `failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1). Exits 1 when any correctness check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "obs/provenance.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload offline_batch|online_multihost|"
               "drift_writes --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_provenance(const RunConfig& cfg, const RunResult& r) {
  const obs::BuildProvenance& p = obs::build_provenance();
  std::string line = "{\"git_sha\": \"" + json_escape(p.git_sha) +
                     "\", \"compiler\": \"" + json_escape(p.compiler) +
                     "\", \"build_type\": \"" + json_escape(p.build_type) +
                     "\", \"flags\": \"" + json_escape(p.flags) +
                     "\", \"simd\": \"" +
                     common::simd_level_name(common::simd_active_level()) +
                     "\", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"pool_threads\": " +
                     std::to_string(common::ThreadPool::global().size()) +
                     ", \"workload\": \"" + cfg.workload +
                     "\", \"seed\": " + std::to_string(cfg.seed) +
                     ", \"seconds\": " + num(cfg.seconds) +
                     ", \"trace\": " + (cfg.trace ? "1" : "0");
  for (const auto& [k, v] : r.params) {
    line += ", \"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  line += "}";
  std::printf("provenance %s\n", line.c_str());
  std::printf(
      "validity: sim metrics are outputs of the UPMEM cost model, which is "
      "unvalidated against hardware (the repository holds no reference "
      "measurements); host metrics are wall-clock time of this simulator "
      "on this machine.\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (arg("--workload")) {
      cfg.workload = argv[++i];
      have_workload = true;
    } else if (arg("--seed")) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg("--seconds")) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg("--trace")) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !(cfg.seconds > 0)) return usage(argv[0]);

  RunResult r;
  try {
    if (cfg.workload == "offline_batch") {
      r = run_offline_batch(cfg);
    } else if (cfg.workload == "online_multihost") {
      r = run_online_multihost(cfg);
    } else if (cfg.workload == "drift_writes") {
      r = run_drift_writes(cfg);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  if (!cfg.trace) {
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Every operation attempted so far, checks included, is in the ledger;
    // the share is final here.
    r.add("success_share", r.ledger.success_share(), "fraction");
  }
  for (const Metric& m : r.metrics) {
    r.ledger.check(valid_metric_name(m.name), "bad metric name " + m.name);
    r.ledger.check(std::isfinite(m.value), "non-finite metric " + m.name);
  }

  print_provenance(cfg, r);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& f : r.ledger.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("digest %s seed=%llu trace=%d %016llx\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
              static_cast<unsigned long long>(r.digest));
  std::printf("failed_share %.6g (%llu of %llu operations)\n",
              r.ledger.failed_share(),
              static_cast<unsigned long long>(r.ledger.failed),
              static_cast<unsigned long long>(r.ledger.attempted));

  const bool correct = r.ledger.failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.ledger.attempted) +
                     ", \"failed\": " + std::to_string(r.ledger.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
