#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "perfbench/src/rng.h"

namespace perfbench {
namespace {

std::string ErrorKey(const xpe::Status& s) { return "E " + s.ToString(); }

}  // namespace

void Result::Wrong(const std::string& what) {
  correct = false;
  if (++failed <= 10) std::printf("# WRONG ANSWER: %s\n", what.c_str());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t at = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + at, v.end());
  return v[at];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

double TailPercentile(size_t samples) {
  for (double p : {99.0, 90.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double Latencies::P50(QueryClass c) const {
  std::vector<double> per_block;
  for (const auto& block : samples_) {
    std::vector<double> medians;
    for (size_t q = 0; q < class_.size(); ++q) {
      if (class_[q] == c && !block[q].empty()) medians.push_back(Median(block[q]));
    }
    if (!medians.empty()) per_block.push_back(GeoMean(medians));
  }
  return Quantile(std::move(per_block), 0.25);
}

Tail Latencies::TailUs(QueryClass c) const {
  // The run's blocks fall into kTailStretches stretches of consecutive
  // blocks; each stretch pools its samples, and the run reports the lower
  // quartile over stretches, for the reason P50 takes one over blocks. One
  // percentile serves every stretch, chosen from the smallest: a disturbed
  // stretch holds fewer samples and must not be judged on a lower one.
  std::vector<std::vector<double>> stretches(kTailStretches);
  for (size_t b = 0; b < samples_.size(); ++b) {
    std::vector<double>& pooled = stretches[b * kTailStretches / samples_.size()];
    for (size_t q = 0; q < class_.size(); ++q) {
      if (class_[q] == c) {
        pooled.insert(pooled.end(), samples_[b][q].begin(), samples_[b][q].end());
      }
    }
  }
  std::erase_if(stretches, [](const auto& v) { return v.empty(); });
  if (stretches.empty()) return Tail();
  size_t fewest = stretches[0].size();
  for (const auto& v : stretches) fewest = std::min(fewest, v.size());
  const double p = TailPercentile(fewest);
  std::vector<Tail> tails;
  for (auto& v : stretches) {
    const size_t n = v.size();
    tails.push_back({Quantile(std::move(v), p / 100.0), p, n,
                     static_cast<size_t>(n * (100.0 - p) / 100.0)});
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  const size_t rank = static_cast<size_t>(std::ceil(0.25 * tails.size()));
  return tails[rank == 0 ? 0 : rank - 1];
}

double Latencies::QueryMedian(size_t query) const {
  std::vector<double> all;
  for (const auto& block : samples_) {
    all.insert(all.end(), block[query].begin(), block[query].end());
  }
  return Median(std::move(all));
}

double Latencies::BlockCountQ3() const {
  std::vector<double> counts;
  for (const auto& block : samples_) {
    size_t n = 0;
    for (const auto& q : block) n += q.size();
    counts.push_back(static_cast<double>(n));
  }
  return Quantile(std::move(counts), 0.75);
}

size_t BlockOf(uint64_t at_ns, uint64_t start_ns, int seconds, size_t blocks) {
  const double share = static_cast<double>(at_ns - std::min(at_ns, start_ns)) /
                       (seconds * 1e9);
  return std::min(static_cast<size_t>(share * static_cast<double>(blocks)),
                  blocks - 1);
}

void AddClassLatency(Result& r, const Latencies& latencies) {
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    const std::string name = ClassName(cls);
    const Tail tail = latencies.TailUs(cls);
    r.Add(name + "_p50_us", latencies.P50(cls), "us");
    r.Add(name + "_tail_us", tail.value, "us");
    std::printf("# %s_tail_us is p%g of a stretch of %zu samples (%zu beyond it)\n",
                name.c_str(), tail.percentile, tail.samples, tail.beyond);
  }
}

std::string NodesKey(uint64_t count, std::span<const uint32_t> ids) {
  const size_t n = std::min(ids.size(), kRenderedNodes);
  const std::string_view bytes(reinterpret_cast<const char*>(ids.data()),
                               n * sizeof(uint32_t));
  char buf[64];
  std::snprintf(buf, sizeof buf, "N %llu %016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(Digest(bytes)));
  return buf;
}

std::string NumberKey(double v) {
  if (!std::isfinite(v)) return "D nonfinite";
  char buf[64];
  std::snprintf(buf, sizeof buf, "D %.17g", v);
  return buf;
}

std::string FirstKey(bool found, uint32_t id) {
  return found ? "F " + std::to_string(id) : "F -";
}

Call Run(xpe::Query& q, Verb verb, const xpe::xml::Document& doc) {
  Call c;
  switch (verb) {
    case Verb::kNodes: {
      c.start_ns = NowNs();
      auto r = q.Nodes(doc);
      c.end_ns = NowNs();
      c.key = r.ok() ? NodesKey(r->size(), r->ids()) : ErrorKey(r.status());
      break;
    }
    case Verb::kLimit: {
      c.start_ns = NowNs();
      auto r = q.Limit(doc, kLimitN);
      c.end_ns = NowNs();
      c.key = r.ok() ? NodesKey(r->size(), r->ids()) : ErrorKey(r.status());
      break;
    }
    case Verb::kExists: {
      c.start_ns = NowNs();
      auto r = q.Exists(doc);
      c.end_ns = NowNs();
      c.key = r.ok() ? BoolKey(*r) : ErrorKey(r.status());
      break;
    }
    case Verb::kFirst: {
      c.start_ns = NowNs();
      auto r = q.First(doc);
      c.end_ns = NowNs();
      c.key = r.ok() ? FirstKey(r->has_value(), r->value_or(0))
                     : ErrorKey(r.status());
      break;
    }
    case Verb::kEval: {
      c.start_ns = NowNs();
      auto r = q.Eval(doc);
      c.end_ns = NowNs();
      if (!r.ok()) {
        c.key = ErrorKey(r.status());
      } else if (r->is_node_set()) {
        c.key = NodesKey(r->node_set().size(), r->node_set().ids());
      } else if (r->type() == xpe::xpath::ValueType::kBoolean) {
        c.key = BoolKey(r->boolean());
      } else if (r->type() == xpe::xpath::ValueType::kNumber) {
        c.key = NumberKey(r->number());
      } else {
        c.key = "S " + r->string();
      }
      break;
    }
  }
  return c;
}

size_t WriteTrace(const std::string& path,
                  const std::vector<const Tracer*>& tracers) {
  std::FILE* out = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  struct Agg {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Agg> by_name;
  size_t written = 0;
  for (size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      Agg& a = by_name[s.name];
      ++a.count;
      a.total_us += dur / 1e3;
      a.self_us += (dur - std::min(dur, child_ns[i])) / 1e3;
      if (out) {
        std::fprintf(out,
                     "{\"thread\":%zu,\"span\":%zu,\"name\":\"%s\",\"start_ns\":"
                     "%llu,\"end_ns\":%llu,\"parent\":%lld,\"request\":%llu}\n",
                     t, i, s.name, static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
      }
      ++written;
    }
  }
  if (out) std::fclose(out);
  std::printf("# trace: %zu spans%s%s\n", written, out ? " written to " : "",
              out ? path.c_str() : "");
  std::printf("# %-22s %10s %14s %14s\n", "span", "count", "total_us",
              "self_us");
  for (const auto& [name, a] : by_name) {
    std::printf("# %-22s %10llu %14.1f %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(a.count), a.total_us,
                a.self_us);
  }
  return written;
}

}  // namespace perfbench
