// lib_adversarial: one thread, a closed loop of xpe::Query verbs on one
// warmed random document whose label-path count grows with |D| (hot tier,
// default options, so the static analyzer runs on every call). The
// analyzer does most of the work for the path, probe and miss classes;
// MINCONTEXT does it for the scalar class.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/src/common.h"
#include "perfbench/src/rng.h"
#include "src/analyze/satisfiability.h"
#include "src/analyze/summary.h"
#include "src/core/query.h"
#include "src/index/document_index.h"
#include "src/succinct/succinct_index.h"
#include "src/xml/parser.h"

namespace perfbench {
namespace {

using xpe::xml::Document;

constexpr int kAdversarialElements = 20000;
constexpr int kSetupReps = 13;
constexpr int kSetupsBefore = 7;
// Warm-up calls per query: until the session arena stops growing, within
// these bounds.
constexpr int kWarmMin = 2;
constexpr int kWarmMax = 8;

struct LibQuery {
  QuerySpec spec;
  xpe::Query query;
  std::string observed;  // the answer of the last warm-up call
};

struct Setup {
  std::unique_ptr<Document> doc;
  std::vector<LibQuery> queries;
  double publish_s = 0;  // parse + warm
  double total_s = 0;    // + compile + warm-up round
  double parse_s = 0;
  double index_build_s = 0;    // traced run only
  double summary_build_s = 0;  // traced run only
  double compile_us = 0;       // mean per distinct text
};

Setup SetUp(const std::string& xml, const std::vector<QuerySpec>& specs,
            Tracer* tracer) {
  Setup s;
  const uint64_t t0 = NowNs();
  const int64_t root = tracer ? tracer->Open("setup", -1, 0) : -1;
  auto parsed = xpe::xml::Parse(xml);
  const uint64_t t_parse = NowNs();
  if (tracer) tracer->Record("xml.parse", t0, t_parse, root, 0);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n", parsed.status().ToString().c_str());
    std::exit(1);
  }
  s.doc = std::make_unique<Document>(std::move(*parsed));
  if (tracer) {
    // The traced run splits WarmCaches into its layers.
    uint64_t a = NowNs();
    s.doc->index();
    uint64_t b = NowNs();
    tracer->Record("index.build", a, b, root, 0);
    s.index_build_s = (b - a) / 1e9;
    s.doc->summary();
    a = NowNs();
    tracer->Record("analyze.summary_build", b, a, root, 0);
    s.summary_build_s = (a - b) / 1e9;
  }
  const uint64_t w0 = NowNs();
  s.doc->WarmCaches();
  const uint64_t t_warm = NowNs();
  if (tracer) tracer->Record("document.warm", w0, t_warm, root, 0);

  double compile_ns = 0;
  for (const QuerySpec& spec : specs) {
    const uint64_t c0 = NowNs();
    auto q = xpe::Query::Compile(spec.text);
    const uint64_t c1 = NowNs();
    if (tracer) tracer->Record("xpath.compile", c0, c1, root, 0);
    compile_ns += c1 - c0;
    if (!q.ok()) {
      std::fprintf(stderr, "compile failed: %s: %s\n", spec.text.c_str(),
                   q.status().ToString().c_str());
      std::exit(1);
    }
    s.queries.push_back({spec, std::move(*q), ""});
  }
  s.compile_us = compile_ns / 1e3 / static_cast<double>(specs.size());

  const uint64_t r0 = NowNs();
  for (LibQuery& lq : s.queries) {
    size_t arena = 0;
    for (int i = 0; i < kWarmMax; ++i) {
      lq.observed = Run(lq.query, lq.spec.verb, *s.doc).key;
      const size_t now = lq.query.arena_bytes_peak();
      if (i + 1 >= kWarmMin && now == arena) break;
      arena = now;
    }
  }
  const uint64_t t_end = NowNs();
  if (tracer) {
    tracer->Record("warmup.round", r0, t_end, root, 0);
    tracer->Close(root);
  }
  s.parse_s = (t_parse - t0) / 1e9;
  s.publish_s = (t_warm - t0) / 1e9;
  s.total_s = (t_end - t0) / 1e9;
  return s;
}

// Every distinct (document, query, mode) answer against the naive engine,
// the in-tree executable specification. Runs outside any timed region.
void CheckAgainstNaive(Setup& s, Result& result) {
  for (LibQuery& lq : s.queries) {
    xpe::Query naive(lq.query.shared_plan());
    naive.With(xpe::EngineKind::kNaive);
    const std::string want = Run(naive, lq.spec.verb, *s.doc).key;
    const auto analysis = xpe::analyze::AnalyzeQuery(
        lq.query.plan(), *s.doc, s.doc->summary());
    std::printf("# query %-6s %-6s %-52s -> %-24s%s\n", ClassName(lq.spec.cls),
                VerbMode(lq.spec.verb), lq.spec.text.c_str(), want.c_str(),
                analysis.proves_empty() || analysis.proves_constant()
                    ? " (summary proves it)"
                    : "");
    if (want.rfind("E ", 0) == 0) {
      result.Wrong("naive engine failed on " + lq.spec.text + ": " + want);
    } else if (lq.observed != want) {
      result.Wrong(lq.spec.text + ": got " + lq.observed + ", naive " + want);
    }
    lq.observed = want;
  }
}

}  // namespace

Result RunLib(const Args& args) {
  Result result;
  AdversarialInput in = MakeAdversarial(args.seed, kAdversarialElements);
  const std::string xml = std::move(in.xml);
  const std::vector<QuerySpec> specs = std::move(in.queries);

  if (args.describe) {
    std::printf("doc %016llx %zu bytes\n",
                static_cast<unsigned long long>(Digest(xml)), xml.size());
    for (const QuerySpec& q : specs) {
      std::printf("query %s %s %s\n", ClassName(q.cls), VerbMode(q.verb),
                  q.text.c_str());
    }
    return result;
  }

  // Set up several times: kSetupsBefore times before the timed loop (the
  // last set-up is the one the loop runs on) and the rest after it, so the
  // statistics sample more than one moment of the host.
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  std::vector<double> setup_s, publish_ms, parse_ms, index_ms, summary_ms,
      compile_us;
  auto set_up = [&] {
    Setup one = SetUp(xml, specs, tr);
    setup_s.push_back(one.total_s);
    publish_ms.push_back(one.publish_s * 1e3);
    parse_ms.push_back(one.parse_s * 1e3);
    index_ms.push_back(one.index_build_s * 1e3);
    summary_ms.push_back(one.summary_build_s * 1e3);
    compile_us.push_back(one.compile_us);
    return one;
  };
  Setup s;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    s = Setup();  // release the previous document before building the next
    s = set_up();
  }
  const Document& doc = *s.doc;
  const auto& summary = doc.summary();
  std::printf("# input %s seed=%llu: %u nodes, %u label paths (%.1f%% of |D|), "
              "%zu bytes, digest %016llx, hot tier\n", "adversarial",
              static_cast<unsigned long long>(args.seed), doc.size(),
              summary.size(), 100.0 * summary.size() / doc.size(), xml.size(),
              static_cast<unsigned long long>(Digest(xml)));

  CheckAgainstNaive(s, result);

  // The timed closed loop: short passes over the query list, each class in
  // one burst and every class equally often (a smaller class repeats its
  // queries), so each class gets the same number of samples and drift hits
  // every class alike. The traced run alternates untraced and traced
  // passes and compares the two to report the tracing overhead.
  const size_t n = s.queries.size();
  std::vector<std::vector<size_t>> by_class(kNumClasses);
  for (size_t i = 0; i < n; ++i) {
    by_class[static_cast<int>(s.queries[i].spec.cls)].push_back(i);
  }
  size_t widest = 0;
  for (const auto& c : by_class) widest = std::max(widest, c.size());
  std::vector<size_t> pass;
  for (const auto& c : by_class) {
    for (size_t k = 0; k < widest; ++k) pass.push_back(c[k % c.size()]);
  }
  std::vector<QueryClass> classes;
  for (const LibQuery& lq : s.queries) classes.push_back(lq.spec.cls);
  Latencies lat(classes, kBlocks), traced_lat(classes, kBlocks),
      analyze_us(classes, kBlocks);
  xpe::EvalStats total, stats;
  uint64_t traced_calls = 0, request = 0;
  uint64_t analyzed_steps = 0;  // keeps the outside analysis observable
  const uint64_t loop_start = NowNs();
  const uint64_t deadline =
      loop_start + static_cast<uint64_t>(args.seconds) * 1'000'000'000ull;
  uint64_t timed_ns = 0;
  for (uint64_t p = 0; NowNs() < deadline; ++p) {
    const bool traced = args.trace && p % 2 == 1;
    for (size_t i : pass) {
      LibQuery& lq = s.queries[i];
      const size_t block = BlockOf(NowNs(), loop_start, args.seconds, kBlocks);
      ++result.attempted;
      Call call;
      if (!traced) {
        call = Run(lq.query, lq.spec.verb, doc);
        lat.Add(i, block, call.us());
      } else {
        // The verb first, so it meets the same cache state as in an
        // untraced pass; the outside analysis follows on the same plan
        // and document.
        const uint64_t rid = ++request;
        const int64_t root = tracer.Open("query", -1, rid);
        stats.Reset();
        lq.query.WithStats(&stats);
        call = Run(lq.query, lq.spec.verb, doc);
        lq.query.WithStats(nullptr);
        tracer.Record("core.verb", call.start_ns, call.end_ns, root, rid);
        traced_lat.Add(i, block, call.us());
        const uint64_t a0 = NowNs();
        const auto analysis =
            xpe::analyze::AnalyzeQuery(lq.query.plan(), doc, summary);
        const uint64_t a1 = NowNs();
        analyzed_steps += analysis.steps_analyzed;
        tracer.Record("analyze.query", a0, a1, root, rid);
        tracer.Close(root);
        analyze_us.Add(i, block, (a1 - a0) / 1e3);
        total.nodes_visited += stats.nodes_visited;
        total.contexts_evaluated += stats.contexts_evaluated;
        total.indexed_steps += stats.indexed_steps;
        total.count_fast_path += stats.count_fast_path;
        total.pruned_by_summary += stats.pruned_by_summary;
        total.cells_peak = std::max(total.cells_peak, stats.cells_peak);
        total.arena_bytes_peak =
            std::max(total.arena_bytes_peak, stats.arena_bytes_peak);
        ++traced_calls;
      }
      timed_ns += call.end_ns - call.start_ns;
      if (call.key != lq.observed) {
        result.Wrong(lq.spec.text + ": got " + call.key + ", naive " +
                     lq.observed);
      }
      if (NowNs() >= deadline) break;
    }
  }
  const double loop_s = (NowNs() - loop_start) / 1e9;
  for (int rep = kSetupsBefore; rep < kSetupReps; ++rep) set_up();

  size_t arena_bytes = 0;
  for (const LibQuery& lq : s.queries) {
    arena_bytes = std::max(arena_bytes, lq.query.arena_bytes_peak());
  }
  const size_t index_bytes = doc.index().MemoryUsageBytes();

  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    // The fastest set-up: a parse and warm of a few milliseconds is
    // easily stretched by other tenants, never shortened.
    result.Add("publish_ms", *std::min_element(publish_ms.begin(), publish_ms.end()),
               "ms");
    result.Add("resident_bytes",
               static_cast<double>(index_bytes + summary.MemoryUsageBytes() +
                                   arena_bytes),
               "bytes");
    AddClassLatency(result, lat);
    result.Add("throughput_qps",
               lat.BlockCountQ3() / (args.seconds / double{kBlocks}), "1/s");
    std::printf("# %llu calls in %.2f s, %.1f%% of it inside library calls\n",
                static_cast<unsigned long long>(result.attempted), loop_s,
                100.0 * timed_ns / 1e9 / loop_s);
    return result;
  }

  // --- per-layer metrics (traced run) ---
  std::printf("# %-52s %12s %12s %12s\n", "query (p50 us)", "untraced",
              "traced", "analyze");
  for (size_t i = 0; i < n; ++i) {
    std::printf("# %-52s %12.1f %12.1f %12.1f\n", s.queries[i].spec.text.c_str(),
                lat.QueryMedian(i), traced_lat.QueryMedian(i),
                analyze_us.QueryMedian(i));
  }
  // Tracing overhead: one pass's worth of per-query medians, traced
  // against untraced.
  double pass_plain = 0, pass_traced = 0;
  for (size_t i = 0; i < n; ++i) {
    pass_plain += lat.QueryMedian(i);
    pass_traced += traced_lat.QueryMedian(i);
  }
  // The dense tier, built after the loop only to be measured.
  const uint64_t d0 = NowNs();
  const size_t dense_bytes = doc.succinct_index().MemoryUsageBytes();
  const uint64_t d1 = NowNs();
  tracer.Record("succinct.build", d0, d1, -1, 0);

  const double calls = static_cast<double>(std::max<uint64_t>(traced_calls, 1));

  result.Add("xml.parse_ms", Median(parse_ms), "ms");
  result.Add("xml.parse_mb_per_s", xml.size() / 1e6 / (Median(parse_ms) / 1e3),
             "MB/s");
  result.Add("xml.doc_nodes", doc.size(), "count");
  result.Add("xpath.compile_us", Median(compile_us), "us");
  result.Add("batch.plan_cache_hit_ratio", 0, "ratio");
  result.Add("batch.queue_wait_us", 0, "us");
  result.Add("batch.item_us", 0, "us");
  result.Add("batch.worker_utilization_pct", 0, "%");
  result.Add("analyze.summary_build_ms", Median(summary_ms), "ms");
  result.Add("analyze.summary_nodes", summary.size(), "count");
  result.Add("analyze.summary_bytes",
             static_cast<double>(summary.MemoryUsageBytes()), "bytes");
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    result.Add(std::string("analyze.query_us.") + ClassName(cls),
               analyze_us.P50(cls), "us");
  }
  result.Add("analyze.prune_ratio", total.pruned_by_summary / calls, "ratio");
  const double analyze_path = analyze_us.P50(QueryClass::kPath);
  const double verb_path = traced_lat.P50(QueryClass::kPath);
  result.Add("analyze.path_share_pct", 100.0 * analyze_path / verb_path, "%");
  std::printf("# analyze.query_us.path %.1f us of path p50 %.1f us (%.1f%%)\n",
              analyze_path, verb_path, 100.0 * analyze_path / verb_path);
  result.Add("index.build_ms", Median(index_ms), "ms");
  result.Add("index.bytes",
             static_cast<double>(index_bytes), "bytes");
  result.Add("index.indexed_steps_per_query", total.indexed_steps / calls,
             "count");
  result.Add("succinct.build_ms", (d1 - d0) / 1e6, "ms");
  result.Add("succinct.bytes",
             static_cast<double>(dense_bytes), "bytes");
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    result.Add(std::string("core.self_us.") + ClassName(cls),
               std::max(0.0, traced_lat.P50(cls) - analyze_us.P50(cls)), "us");
  }
  result.Add("core.nodes_visited_per_query", total.nodes_visited / calls,
             "count");
  result.Add("core.contexts_evaluated_per_query",
             total.contexts_evaluated / calls, "count");
  result.Add("core.cells_peak", static_cast<double>(total.cells_peak), "count");
  result.Add("core.count_fast_path_ratio", total.count_fast_path / calls,
             "ratio");
  result.Add("axes.arena_bytes_peak", static_cast<double>(total.arena_bytes_peak),
             "bytes");
  result.Add("serve.request_us", 0, "us");
  result.Add("serve.queue_wait_us", 0, "us");
  result.Add("serve.client_gap_us", 0, "us");
  result.Add("serve.dispatch_batch_size", 0, "count");
  result.Add("serve.rejected", 0, "count");
  result.Add("trace.overhead_pct", 100.0 * (pass_traced / pass_plain - 1.0),
             "%");
  const size_t spans = WriteTrace(args.trace_out, {&tracer});
  result.Add("trace.spans", static_cast<double>(spans), "count");
  if (analyzed_steps == 0) std::printf("# the analyzer walked no steps\n");
  return result;
}

}  // namespace perfbench
