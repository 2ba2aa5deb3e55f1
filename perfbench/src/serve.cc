// serve_mixed: an in-process serve::Server on loopback with fixed thread
// counts. Closed-loop keep-alive clients send the auction query classes
// over HTTP with Zipf-skewed literals, so the tenant plan cache sees hits
// and misses, while one writer PUTs a new document version at a fixed
// interval. The document is small, so the serve hops, the plan cache, the
// compile path and the publish path (parse, warm, hot-swap) do the work.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "perfbench/src/common.h"
#include "perfbench/src/http.h"
#include "perfbench/src/rng.h"
#include "src/analyze/satisfiability.h"
#include "src/analyze/summary.h"
#include "src/index/document_index.h"
#include "src/serve/server.h"
#include "src/succinct/succinct_index.h"
#include "src/xml/parser.h"

namespace perfbench {
namespace {

// Fixed, not taken from the hardware. A connection holds its io thread
// for its keep-alive lifetime, so there is one per connection: 2 clients,
// the writer and the metrics reader. 2 client threads + 1 writer are the
// load threads (at most 4 on a 4-thread host).
constexpr int kClients = 2;
constexpr int kIoThreads = kClients + 2;
constexpr int kWorkers = 2;
constexpr size_t kPlanCacheCapacity = 128;
constexpr int kServePeople = 10;
constexpr int kDocVersions = 4;  // the writer cycles through these contents
constexpr int kPublishIntervalMs = 100;
constexpr double kZipfS = 1.1;
constexpr int kSetupReps = 9;
constexpr const char* kDocTarget = "/documents/auction";
constexpr uint64_t kTraceWindowNs = 500'000'000;  // traced/untraced windows

struct Record {
  uint16_t tmpl;
  uint16_t literal;
  uint32_t version;
  bool traced;
  uint64_t at_ns;
  double us;
  std::string key;
};

struct ClientOut {
  std::vector<Record> records;
  uint64_t attempted = 0;
  uint64_t rejected = 0;  // 429 and 503
  uint64_t errors = 0;    // transport failures and other statuses
  Tracer tracer;
};

std::string QueryBody(const QueryTemplate& t, size_t literal) {
  std::string body = "{\"doc\":\"auction\",\"xpath\":" +
                     JsonQuote(t.Fill(literal)) + ",\"mode\":\"" +
                     VerbMode(t.verb) + "\"";
  if (t.verb == Verb::kLimit) body += ",\"limit\":" + std::to_string(kLimitN);
  return body + "}";
}

// The answer key of a /query response, in the library's key format.
std::string ResponseKey(Verb verb, const Json& j) {
  std::vector<uint32_t> ids;
  for (const Json& n : j["nodes"].array) {
    ids.push_back(static_cast<uint32_t>(n["id"].number));
  }
  const std::string& type = j["type"].string;
  const Json& value = j["value"];
  switch (verb) {
    case Verb::kExists:
      return BoolKey(value.boolean);
    case Verb::kFirst:
      return FirstKey(!ids.empty(), ids.empty() ? 0 : ids[0]);
    case Verb::kNodes:
    case Verb::kLimit:
      return NodesKey(static_cast<uint64_t>(j["count"].number), ids);
    case Verb::kEval:
      if (type == "boolean") return BoolKey(value.boolean);
      if (type == "number") {
        return value.type == Json::kNull ? NumberKey(0.0 / 0.0)
                                         : NumberKey(value.number);
      }
      if (type == "node-set") {
        return NodesKey(static_cast<uint64_t>(j["count"].number), ids);
      }
      return "S " + value.string;
  }
  return "?";
}

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // sum, count
};

MetricsSnapshot GetMetrics(HttpConn& conn) {
  MetricsSnapshot m;
  int status = 0;
  std::string body;
  Json j;
  if (!conn.RoundTrip("GET", "/metrics.json", "", "application/json", &status,
                      &body) ||
      status != 200 || !Json::Parse(body, &j)) {
    std::fprintf(stderr, "GET /metrics.json failed (%d)\n", status);
    std::exit(1);
  }
  for (const auto& [k, v] : j["counters"].object) m.counters[k] = v.number;
  for (const auto& [k, v] : j["histograms"].object) {
    m.histograms[k] = {v["sum"].number, v["count"].number};
  }
  return m;
}

double Counter(const MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : it->second;
}

double CounterDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                    const std::string& name) {
  return Counter(b, name) - Counter(a, name);
}

// Mean of the observations a histogram gained between two snapshots. The
// exporter's p50 is a log2 bucket bound; the mean keeps every digit.
double HistogramMean(const MetricsSnapshot& a, const MetricsSnapshot& b,
                     const std::string& name) {
  auto get = [&](const MetricsSnapshot& m) {
    auto it = m.histograms.find(name);
    return it == m.histograms.end() ? std::pair<double, double>{0, 0}
                                    : it->second;
  };
  const auto [s0, c0] = get(a);
  const auto [s1, c1] = get(b);
  return c1 > c0 ? (s1 - s0) / (c1 - c0) : 0.0;
}

uint32_t PutDocument(HttpConn& conn, const std::string& xml, double* ms) {
  int status = 0;
  std::string body;
  const uint64_t t0 = NowNs();
  const bool ok = conn.RoundTrip("PUT", kDocTarget, xml, "application/xml",
                                 &status, &body);
  if (ms) *ms = (NowNs() - t0) / 1e6;
  Json j;
  if (!ok || (status != 200 && status != 201) || !Json::Parse(body, &j)) {
    return 0;
  }
  return static_cast<uint32_t>(j["version"].number);
}

}  // namespace

Result RunServe(const Args& args) {
  Result result;
  std::vector<std::string> docs;
  for (int v = 0; v < kDocVersions; ++v) {
    docs.push_back(MakeAuctionXml(args.seed * kDocVersions + v, kServePeople));
  }
  const std::vector<QueryTemplate> templates = AuctionTemplates(kServePeople);
  // Per template: a seeded order of its literals, drawn Zipf-skewed.
  std::vector<std::vector<size_t>> order(templates.size());
  std::vector<Zipf> zipf;
  {
    Rng rng(args.seed, 4);
    for (size_t t = 0; t < templates.size(); ++t) {
      const size_t n = std::max<size_t>(templates[t].literals.size(), 1);
      for (size_t i = 0; i < n; ++i) order[t].push_back(i);
      for (size_t i = n; i > 1; --i) std::swap(order[t][i - 1], order[t][rng.Below(i)]);
      zipf.emplace_back(n, kZipfS);
    }
  }
  std::vector<std::vector<size_t>> by_class(kNumClasses);
  for (size_t t = 0; t < templates.size(); ++t) {
    by_class[static_cast<int>(templates[t].cls)].push_back(t);
  }
  size_t distinct = 0;
  for (const auto& o : order) distinct += o.size();

  if (args.describe) {
    for (const std::string& d : docs) {
      std::printf("doc %016llx %zu bytes\n",
                  static_cast<unsigned long long>(Digest(d)), d.size());
    }
    for (size_t t = 0; t < templates.size(); ++t) {
      std::printf("template %s %s %s literals", ClassName(templates[t].cls),
                  VerbMode(templates[t].verb), templates[t].text.c_str());
      for (size_t i : order[t]) {
        std::printf(" %s", templates[t].literals.empty()
                               ? "-"
                               : templates[t].literals[i].c_str());
      }
      std::printf("\n");
    }
    return result;
  }

  xpe::serve::ServeOptions options;
  options.io_threads = kIoThreads;
  options.workers = kWorkers;
  options.plan_cache_capacity = kPlanCacheCapacity;

  // Set-up, several times: start, publish the first version, and one
  // plan-cache round over every distinct query text.
  std::unique_ptr<xpe::serve::Server> server;
  std::vector<double> setup_s;
  Tracer setup_tracer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const uint64_t t0 = NowNs();
    server = std::make_unique<xpe::serve::Server>(options);
    if (!server->Start().ok()) {
      std::fprintf(stderr, "server failed to start\n");
      std::exit(1);
    }
    HttpConn conn(server->port());
    const uint64_t p0 = NowNs();
    if (PutDocument(conn, docs[0], nullptr) != 1) {
      std::fprintf(stderr, "initial PUT failed\n");
      std::exit(1);
    }
    const uint64_t p1 = NowNs();
    for (size_t t = 0; t < templates.size(); ++t) {
      for (size_t i : order[t]) {
        int status = 0;
        std::string body;
        if (!conn.RoundTrip("POST", "/query", QueryBody(templates[t], i),
                            "application/json", &status, &body) ||
            status != 200) {
          std::fprintf(stderr, "warm-up query failed (%d): %s\n", status,
                       body.c_str());
          std::exit(1);
        }
      }
    }
    const uint64_t t1 = NowNs();
    if (args.trace) {
      const int64_t root = setup_tracer.Record("setup", t0, t1, -1, 0);
      setup_tracer.Record("http.put", p0, p1, root, 0);
      setup_tracer.Record("warmup.round", p1, t1, root, 0);
    }
    setup_s.push_back((t1 - t0) / 1e9);
  }

  // --- the timed run ---
  HttpConn admin(server->port());
  const MetricsSnapshot before = GetMetrics(admin);
  const auto cache_before = server->TenantCacheStats("default");
  std::vector<ClientOut> clients(kClients);
  std::vector<std::pair<uint32_t, int>> versions{{1, 0}};  // version, content
  std::vector<double> publish_ms;
  Tracer writer_tracer;
  uint64_t put_failures = 0;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(args.seconds) * 1'000'000'000ull;
  auto traced_now = [&](uint64_t t) {
    return args.trace && ((t - start) / kTraceWindowNs) % 2 == 1;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& out = clients[c];
      Rng rng(args.seed, 100 + c);
      HttpConn conn(server->port());
      uint64_t request = 0;
      std::string body;
      while (NowNs() < end) {
        const auto& cls = by_class[rng.Below(kNumClasses)];
        const size_t t = cls[rng.Below(cls.size())];
        const size_t lit = order[t][zipf[t].Draw(rng)];
        const std::string payload = QueryBody(templates[t], lit);
        int status = 0;
        ++out.attempted;
        const uint64_t t0 = NowNs();
        const bool ok = conn.RoundTrip("POST", "/query", payload,
                                       "application/json", &status, &body);
        const uint64_t t1 = NowNs();
        Json j;
        if (!ok) {
          ++out.errors;
          continue;
        }
        if (status == 429 || status == 503) {
          ++out.rejected;
          continue;
        }
        if (status != 200 || !Json::Parse(body, &j)) {
          if (++out.errors <= 3) {
            std::printf("# request failed (%d): %s\n", status, body.c_str());
          }
          continue;
        }
        const bool traced = traced_now(t0);
        if (traced) {
          const uint64_t t2 = NowNs();
          const int64_t root = out.tracer.Record("request", t0, t2, -1, ++request);
          out.tracer.Record("http.roundtrip", t0, t1, root, request);
          out.tracer.Record("json.decode", t1, t2, root, request);
        }
        out.records.push_back(
            {static_cast<uint16_t>(t), static_cast<uint16_t>(lit),
             static_cast<uint32_t>(j["doc_version"].number), traced, t0,
             (t1 - t0) / 1e3,
             ResponseKey(templates[t].verb, j)});
      }
    });
  }
  threads.emplace_back([&] {
    HttpConn conn(server->port());
    for (int k = 1;; ++k) {
      const uint64_t due =
          start + static_cast<uint64_t>(k) * kPublishIntervalMs * 1'000'000ull;
      if (due >= end) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - std::min(due, NowNs())));
      const int content = k % kDocVersions;
      double ms = 0;
      const uint64_t t0 = NowNs();
      const uint32_t v = PutDocument(conn, docs[content], &ms);
      if (traced_now(t0)) writer_tracer.Record("http.put", t0, NowNs(), -1, k);
      if (v == 0) {
        ++put_failures;
        continue;
      }
      versions.emplace_back(v, content);
      publish_ms.push_back(ms);
    }
  });
  for (std::thread& t : threads) t.join();
  const double run_s = (NowNs() - start) / 1e9;
  const MetricsSnapshot after = GetMetrics(admin);
  const auto cache_after = server->TenantCacheStats("default");
  double index_bytes = 0, summary_bytes = 0;
  {
    int status = 0;
    std::string body;
    Json j;
    if (admin.RoundTrip("GET", kDocTarget, "", "application/json", &status,
                        &body) &&
        status == 200 && Json::Parse(body, &j)) {
      index_bytes = j["index_bytes"].number;
      summary_bytes = j["summary_bytes"].number;
    }
  }
  server.reset();  // stops and joins every server thread

  // --- answers, outside the timed run: every distinct (document version,
  // query, mode) against the naive engine on the same XML text.
  std::vector<std::unique_ptr<xpe::xml::Document>> parsed;
  for (const std::string& d : docs) {
    auto p = xpe::xml::Parse(d);
    if (!p.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", p.status().ToString().c_str());
      std::exit(1);
    }
    parsed.push_back(std::make_unique<xpe::xml::Document>(std::move(*p)));
  }
  std::map<uint32_t, int> content_of(versions.begin(), versions.end());
  std::map<std::tuple<int, size_t, size_t>, std::string> expected;
  std::vector<QueryClass> classes;
  for (const QueryTemplate& t : templates) classes.push_back(t.cls);
  Latencies latency(classes, kBlocks), traced_latency(classes, kBlocks);
  uint64_t completed = 0;
  std::vector<double> client_us;
  for (ClientOut& out : clients) {
    result.attempted += out.attempted;
    result.failed += out.rejected + out.errors;
    for (const Record& r : out.records) {
      auto it = content_of.find(r.version);
      if (it == content_of.end()) {
        result.Wrong("response names unknown doc_version " +
                     std::to_string(r.version));
        continue;
      }
      const auto k = std::make_tuple(it->second, size_t{r.tmpl}, size_t{r.literal});
      auto e = expected.find(k);
      if (e == expected.end()) {
        auto q = xpe::Query::Compile(templates[r.tmpl].Fill(r.literal));
        std::string want = "E compile";
        if (q.ok()) {
          q->With(xpe::EngineKind::kNaive);
          want = Run(*q, templates[r.tmpl].verb, *parsed[it->second]).key;
        }
        e = expected.emplace(k, want).first;
      }
      if (e->second != r.key) {
        result.Wrong(templates[r.tmpl].Fill(r.literal) + " @v" +
                     std::to_string(r.version) + ": got " + r.key + ", naive " +
                     e->second);
        continue;
      }
      ++completed;
      (r.traced ? traced_latency : latency)
          .Add(r.tmpl, BlockOf(r.at_ns, start, args.seconds, kBlocks), r.us);
      client_us.push_back(r.us);
    }
  }
  result.attempted += publish_ms.size() + put_failures;
  result.failed += put_failures;
  uint64_t rejected = 0;
  for (const ClientOut& out : clients) rejected += out.rejected;
  std::printf("# input serve seed=%llu: %d document versions of %u nodes "
              "(first), %zu query templates, %zu distinct texts, %zu checked\n",
              static_cast<unsigned long long>(args.seed), kDocVersions,
              parsed[0]->size(), templates.size(), distinct, expected.size());
  for (size_t v = 0; v < docs.size(); ++v) {
    std::printf("# doc %zu: %u nodes, %u label paths, %zu bytes, digest %016llx\n",
                v, parsed[v]->size(), parsed[v]->summary().size(),
                docs[v].size(), static_cast<unsigned long long>(Digest(docs[v])));
  }
  std::printf("# server: io_threads=%d workers=%d plan_cache_capacity=%zu; "
              "%d closed-loop clients, 1 writer every %d ms\n",
              kIoThreads, kWorkers, kPlanCacheCapacity, kClients,
              kPublishIntervalMs);
  std::printf("# %llu queries ok, %llu rejected, %zu publishes in %.2f s\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(rejected), publish_ms.size(),
              run_s);

  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("publish_ms", Quantile(publish_ms, 0.25), "ms");
    result.Add("resident_bytes",
               index_bytes + summary_bytes +
                   Counter(after, "xpe_session_arena_bytes_peak"),
               "bytes");
    AddClassLatency(result, latency);
    result.Add("throughput_qps",
               latency.BlockCountQ3() / (args.seconds / double{kBlocks}),
               "1/s");
    return result;
  }

  // --- per-layer metrics (traced run) ---
  // Library-side layers, measured from outside on the first document
  // version after the server has stopped.
  const std::string& xml0 = docs[0];
  std::vector<double> parse_ms, index_ms, summary_ms, succinct_ms;
  std::unique_ptr<xpe::xml::Document> doc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t a = NowNs();
    auto p = xpe::xml::Parse(xml0);
    const uint64_t b = NowNs();
    doc = std::make_unique<xpe::xml::Document>(std::move(*p));
    doc->index();
    const uint64_t c = NowNs();
    doc->summary();
    const uint64_t d = NowNs();
    doc->succinct_index();
    const uint64_t e = NowNs();
    parse_ms.push_back((b - a) / 1e6);
    index_ms.push_back((c - b) / 1e6);
    summary_ms.push_back((d - c) / 1e6);
    succinct_ms.push_back((e - d) / 1e6);
  }
  doc->WarmCaches();
  // Per distinct text: the verb and the analysis, each the median of
  // three calls, then one call with a stats sink.
  constexpr int kOutsideReps = 3;
  Latencies analyze_us(classes), verb_us(classes);
  xpe::EvalStats total, stats;
  uint64_t runs = 0;
  for (size_t t = 0; t < templates.size(); ++t) {
    for (size_t i : order[t]) {
      auto q = xpe::Query::Compile(templates[t].Fill(i));
      if (!q.ok()) continue;
      std::vector<double> verb, analysis;
      for (int rep = 0; rep < kOutsideReps; ++rep) {
        verb.push_back(Run(*q, templates[t].verb, *doc).us());
        const uint64_t a = NowNs();
        xpe::analyze::AnalyzeQuery(q->plan(), *doc, doc->summary());
        analysis.push_back((NowNs() - a) / 1e3);
      }
      verb_us.Add(t, 0, Median(verb));
      analyze_us.Add(t, 0, Median(analysis));
      stats.Reset();
      q->WithStats(&stats);
      Run(*q, templates[t].verb, *doc);
      total.indexed_steps += stats.indexed_steps;
      total.nodes_visited += stats.nodes_visited;
      total.contexts_evaluated += stats.contexts_evaluated;
      total.cells_peak = std::max(total.cells_peak, stats.cells_peak);
      ++runs;
    }
  }
  const double per = static_cast<double>(std::max<uint64_t>(runs, 1));
  const double evals = CounterDelta(before, after, "xpe_session_evals_total");
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  const double request_us = HistogramMean(before, after, "xpe_serve_request_us");
  // Tracing overhead: the per-template medians of traced windows against
  // untraced ones.
  double pass_plain = 0, pass_traced = 0;
  for (size_t t = 0; t < templates.size(); ++t) {
    pass_plain += latency.QueryMedian(t);
    pass_traced += traced_latency.QueryMedian(t);
  }

  result.Add("xml.parse_ms", Median(parse_ms), "ms");
  result.Add("xml.parse_mb_per_s", xml0.size() / 1e6 / (Median(parse_ms) / 1e3),
             "MB/s");
  result.Add("xml.doc_nodes", doc->size(), "count");
  result.Add("xpath.compile_us",
             HistogramMean(before, after, "xpe_plan_cache_compile_us"), "us");
  result.Add("batch.plan_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.Add("batch.queue_wait_us",
             HistogramMean(before, after, "xpe_batch_queue_wait_us"), "us");
  result.Add("batch.item_us",
             HistogramMean(before, after, "xpe_batch_item_latency_us"), "us");
  result.Add("batch.worker_utilization_pct",
             HistogramMean(before, after, "xpe_batch_worker_utilization_pct"),
             "%");
  result.Add("analyze.summary_build_ms", Median(summary_ms), "ms");
  result.Add("analyze.summary_nodes", doc->summary().size(), "count");
  result.Add("analyze.summary_bytes",
             static_cast<double>(doc->summary().MemoryUsageBytes()), "bytes");
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    result.Add(std::string("analyze.query_us.") + ClassName(cls),
               analyze_us.P50(cls), "us");
  }
  result.Add("analyze.prune_ratio",
             evals > 0 ? CounterDelta(before, after, "xpe_analyze_pruned_total") / evals
                       : 0,
             "ratio");
  const double analyze_path = analyze_us.P50(QueryClass::kPath);
  const double path_p50 = latency.P50(QueryClass::kPath);
  result.Add("analyze.path_share_pct", 100.0 * analyze_path / path_p50, "%");
  std::printf("# analyze.query_us.path %.2f us of path p50 %.1f us (%.1f%%)\n",
              analyze_path, path_p50, 100.0 * analyze_path / path_p50);
  result.Add("index.build_ms", Median(index_ms), "ms");
  result.Add("index.bytes", static_cast<double>(doc->index().MemoryUsageBytes()),
             "bytes");
  result.Add("index.indexed_steps_per_query", total.indexed_steps / per, "count");
  result.Add("succinct.build_ms", Median(succinct_ms), "ms");
  result.Add("succinct.bytes",
             static_cast<double>(doc->succinct_index().MemoryUsageBytes()),
             "bytes");
  // The server's eval_us spans enqueue to render, so core self time is
  // estimated from outside on the same texts and document, as in the
  // library workloads.
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    result.Add(std::string("core.self_us.") + ClassName(cls),
               std::max(0.0, verb_us.P50(cls) - analyze_us.P50(cls)), "us");
  }
  result.Add("core.nodes_visited_per_query", total.nodes_visited / per, "count");
  result.Add("core.contexts_evaluated_per_query", total.contexts_evaluated / per,
             "count");
  result.Add("core.cells_peak", static_cast<double>(total.cells_peak), "count");
  result.Add("core.count_fast_path_ratio",
             evals > 0 ? CounterDelta(before, after, "xpe_count_fast_path_total") / evals
                       : 0,
             "ratio");
  result.Add("axes.arena_bytes_peak",
             Counter(after, "xpe_session_arena_bytes_peak"), "bytes");
  result.Add("serve.request_us", request_us, "us");
  result.Add("serve.queue_wait_us",
             HistogramMean(before, after, "xpe_serve_queue_wait_us"), "us");
  result.Add("serve.client_gap_us", Mean(client_us) - request_us, "us");
  result.Add("serve.dispatch_batch_size",
             HistogramMean(before, after, "xpe_serve_dispatch_batch_size"),
             "count");
  result.Add("serve.rejected", static_cast<double>(rejected), "count");
  result.Add("trace.overhead_pct", 100.0 * (pass_traced / pass_plain - 1.0),
             "%");
  std::vector<const Tracer*> tracers{&setup_tracer, &writer_tracer};
  for (const ClientOut& out : clients) tracers.push_back(&out.tracer);
  result.Add("trace.spans", static_cast<double>(WriteTrace(args.trace_out, tracers)),
             "count");
  return result;
}

}  // namespace perfbench
