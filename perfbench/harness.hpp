// Measurement primitives of the repository benchmark, kept free of library
// dependencies so tests.cpp can pin them on their own:
//
//   * nearest-rank percentiles and the tail rule (the highest reported
//     percentile that still has at least ten samples beyond it);
//   * the metric-name charset shared with BENCHMARK.json;
//   * the attempted/failed ledger behind `failed` and `success_share`;
//   * an in-memory span log whose self time is a span's duration minus the
//     part of it its children cover;
//   * an FNV-1a digest over neighbor ids and the bit patterns of simulated
//     metrics, so two runs can be compared for bit-identical model output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----------------------------------------------------------- percentiles

/// Nearest-rank percentile of an ascending sample: element ceil(q*n) - 1
/// (clamped), the same rule serve::simulate_load applies to its p50/p99.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank - 1e-9));
  idx = std::min(std::max<std::size_t>(idx, 1), sorted.size()) - 1;
  return sorted[idx];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const std::size_t at =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<std::size_t>(at, 1), n);
}

/// The percentiles the tail rule chooses from, highest first.
inline constexpr double kTailCandidates[] = {0.999, 0.99, 0.9, 0.5};

/// Tail rule: the highest candidate percentile with at least ten samples
/// beyond it. Falls back to the median when even that has fewer (tiny
/// samples), so a tail is always defined.
inline double tail_quantile(std::size_t n) {
  for (double q : kTailCandidates) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.5;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0.5;  ///< which percentile `tail` is
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.5);
  s.tail_q = tail_quantile(samples.size());
  s.tail = percentile_sorted(samples, s.tail_q);
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------- metric names

/// BENCHMARK.json's name rule: starts with a letter or digit, at most 64
/// characters from letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

// ---------------------------------------------------------------- ledger

/// Operations attempted and failed in one run. A failed correctness check
/// is one failed operation; a rejected request is one failed operation.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void ok(std::uint64_t n = 1) { attempted += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    attempted += n;
    failed += n;
    if (failures.size() < 16) failures.push_back(why);
  }
  /// One check: counts as attempted, and as failed when `pass` is false.
  bool check(bool pass, const std::string& why) {
    if (pass) {
      ok();
    } else {
      fail(why);
    }
    return pass;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  double success_share() const { return 1.0 - failed_share(); }
};

// ----------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::int64_t parent = -1;  ///< index into SpanLog::spans, -1 = root
  std::uint64_t batch = 0;   ///< one id per batch
  double start = 0;
  double end = 0;
  double duration() const { return end - start; }
};

/// Spans recorded around the benchmark's own calls into the library. They
/// stay in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  std::int64_t open(std::string name, std::uint64_t batch,
                    std::int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, batch, now_s(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  /// Record a finished span with explicit times.
  std::int64_t add(std::string name, std::uint64_t batch, std::int64_t parent,
                   double start, double end) {
    spans_.push_back({std::move(name), parent, batch, start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the part of its interval covered by its
  /// direct children (overlapping children are counted once, and any part
  /// of a child outside the parent is ignored).
  double self_time(std::size_t id) const {
    std::vector<std::size_t> kids;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == static_cast<std::int64_t>(id)) kids.push_back(i);
    }
    return self_time(id, kids);
  }

  struct NameTotals {
    std::size_t count = 0;
    double self = 0;   ///< summed self time
    double total = 0;  ///< summed duration
  };
  /// Self and total time per span name.
  std::map<std::string, NameTotals> by_name() const {
    std::vector<std::vector<std::size_t>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      NameTotals& t = out[spans_[i].name];
      ++t.count;
      t.self += self_time(i, kids[i]);
      t.total += spans_[i].duration();
    }
    return out;
  }

 private:
  double self_time(std::size_t id, const std::vector<std::size_t>& kids) const {
    const Span& s = spans_[id];
    std::vector<std::pair<double, double>> cover;
    for (std::size_t k : kids) {
      const double a = std::max(spans_[k].start, s.start);
      const double b = std::min(spans_[k].end, s.end);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    return s.duration() - covered;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t batch,
             std::int64_t parent = -1)
      : log_(log), id_(log.open(std::move(name), batch, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

// ---------------------------------------------------------------- digest

/// FNV-1a over neighbor ids and the exact bit patterns of simulated values.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench
