#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "src/core/query.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  bool describe = false;  // print the generated inputs and exit
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: the contract's last-line fields plus the
/// human-readable notes printed above it.
struct Result {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts a wrong answer: it fails the run.
  void Wrong(const std::string& what);
};

/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);

/// The tail percentile for `samples` samples: p99, which every class of
/// every workload reaches with at least ten samples beyond it in a third
/// of the benchmark's run. Fixed rather than the highest the count allows,
/// so that a faster program (more samples) is not judged on a more
/// extreme percentile; falls back to p90, then p50, only when there are
/// too few samples.
double TailPercentile(size_t samples);

struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Latency samples by query (or serve template) and time block.
///
/// A class's p50 is computed per block: the geometric mean, over the
/// class's queries, of each query's median in that block, so that it does
/// not jump between queries of very different cost from seed to seed. On a
/// shared host, other tenants slow whole stretches of a run by a third and
/// more, and only ever add time; the run therefore reports the lower
/// quartile over blocks, which holds as long as a quarter of the run is
/// undisturbed. The tail is taken likewise over kTailStretches stretches
/// of consecutive blocks, each pooling every sample of the class, so
/// stalls the program causes itself throughout the run stay visible.
inline constexpr size_t kBlocks = 20;
inline constexpr size_t kTailStretches = 3;
class Latencies {
 public:
  explicit Latencies(std::vector<QueryClass> query_class, size_t blocks = 1)
      : class_(std::move(query_class)),
        samples_(blocks, std::vector<std::vector<double>>(class_.size())) {}
  void Add(size_t query, size_t block, double us) {
    samples_[std::min(block, samples_.size() - 1)][query].push_back(us);
  }
  double P50(QueryClass c) const;
  Tail TailUs(QueryClass c) const;
  /// One query's median over the whole run.
  double QueryMedian(size_t query) const;
  /// The upper quartile over blocks of the number of samples in a block
  /// (the closed-loop rate of the less disturbed blocks).
  double BlockCountQ3() const;

 private:
  std::vector<QueryClass> class_;
  std::vector<std::vector<std::vector<double>>> samples_;  // [block][query]
};

/// The block a sample taken at `at_ns` belongs to, for `blocks` equal
/// blocks of a run that started at `start_ns` and lasts `seconds`.
size_t BlockOf(uint64_t at_ns, uint64_t start_ns, int seconds, size_t blocks);

/// Adds `<class>_p50_us` and `<class>_tail_us` for the four classes and
/// prints the tail's percentile and sample count.
void AddClassLatency(Result& r, const Latencies& latencies);

// --- answers -------------------------------------------------------------
// An answer is compared as a short key. Node-sets key on their size and a
// digest of the first 1000 ids (the serve API renders at most 1000).
inline constexpr size_t kRenderedNodes = 1000;
std::string NodesKey(uint64_t count, std::span<const uint32_t> ids);
std::string NumberKey(double v);
inline std::string BoolKey(bool b) { return b ? "B 1" : "B 0"; }
std::string FirstKey(bool found, uint32_t id);

/// One library call and its answer key.
struct Call {
  std::string key;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double us() const { return (end_ns - start_ns) / 1e3; }
};
/// Runs one verb; only the call into the library lies inside the
/// timestamps.
Call Run(xpe::Query& q, Verb verb, const xpe::xml::Document& doc);

// --- tracing -------------------------------------------------------------
/// Spans kept in memory by one thread and written when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;  // index into this tracer's spans, -1 for a root
    uint64_t request;
  };
  int64_t Open(const char* name, int64_t parent, uint64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t span) { spans_[span].end_ns = NowNs(); }
  int64_t Record(const char* name, uint64_t start, uint64_t end, int64_t parent,
                 uint64_t request) {
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes every tracer's spans as JSON lines to `path` and prints, per
/// span name, the count, the total and the self time (duration minus the
/// part covered by child spans). Returns the number of spans written.
size_t WriteTrace(const std::string& path,
                  const std::vector<const Tracer*>& tracers);

// --- workloads -----------------------------------------------------------
Result RunLib(const Args& args);
Result RunServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
