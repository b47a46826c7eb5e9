// Trace analysis for the traced run: per-request span trees, self times,
// ParallelFor shard imbalance, and the Chrome trace / per-layer JSON
// writers (README.md, "Traced run").
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>

#include "e2e.h"
#include "profiling/bench_utils.h"
#include "telemetry/json.h"

namespace lce::e2e {
namespace {

using telemetry::TraceEvent;

struct SpanRef {
  const TraceEvent* e = nullptr;
  int tid = 0;
  std::uint64_t start = 0, end = 0;
  std::int64_t req = -1;  // -1: no "req" argument
  std::size_t index = 0;  // position in the collected events
};

bool HasArg(const TraceEvent& e, const char* name) {
  return std::strcmp(e.arg_name, name) == 0;
}

bool Named(const SpanRef& s, const char* name) {
  return std::strcmp(s.e->name, name) == 0;
}

bool IsNodeSpan(const SpanRef& s) {
  return s.e->category != nullptr && std::strcmp(s.e->category, "node") == 0;
}

// Self time (ns) of each span of one request: the part of its interval,
// clipped to the root, during which no shorter span of the request is
// open. For properly nested spans that is the duration minus the part its
// children cover. The rule also splits time where spans overlap without
// nesting -- the pipeline's proportional gemm/output_transform spans
// against the shard span around them, bench/submit against
// serving/queue_wait -- so a request's self times always sum to its
// bench/request duration.
std::unordered_map<const SpanRef*, double> SelfTimes(
    const std::vector<const SpanRef*>& spans, const SpanRef& root) {
  struct Edge {
    std::uint64_t t;
    bool open;
    const SpanRef* s;
  };
  std::vector<Edge> edges;
  std::unordered_map<const SpanRef*, double> self;
  for (const SpanRef* s : spans) {
    self[s] = 0.0;
    const std::uint64_t lo = std::max(s->start, root.start);
    const std::uint64_t hi = std::min(s->end, root.end);
    if (lo >= hi) continue;
    edges.push_back({lo, true, s});
    edges.push_back({hi, false, s});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  // Innermost first: shorter spans, then (identical intervals on one
  // thread) the one recorded first -- spans are recorded when they close.
  const auto inner = [](const SpanRef* a, const SpanRef* b) {
    const std::uint64_t da = a->end - a->start, db = b->end - b->start;
    return da != db ? da < db : a->index < b->index;
  };
  std::set<const SpanRef*, decltype(inner)> open(inner);
  std::uint64_t prev = 0;
  for (const Edge& e : edges) {
    if (!open.empty()) self[*open.begin()] += static_cast<double>(e.t - prev);
    prev = e.t;
    if (e.open) {
      open.insert(e.s);
    } else {
      open.erase(e.s);
    }
  }
  return self;
}

double ShardImbalancePct(const std::vector<SpanRef>& spans) {
  // ParallelFor calls in one process here come from one submitting thread
  // at a time (the closed-loop caller, or single-shard serving pools), and
  // each call returns only after all its shards finish. Sorted by start,
  // a call's group therefore ends where a shard index repeats.
  std::vector<const SpanRef*> shards;
  for (const SpanRef& s : spans) {
    if (HasArg(*s.e, "shard") && Named(s, "threadpool/shard")) shards.push_back(&s);
  }
  std::sort(shards.begin(), shards.end(),
            [](const SpanRef* a, const SpanRef* b) { return a->start < b->start; });
  std::vector<double> per_call;
  std::vector<const SpanRef*> group;
  const auto flush = [&] {
    if (group.size() >= 2) {
      std::uint64_t mn = UINT64_MAX, mx = 0;
      for (const SpanRef* s : group) {
        mn = std::min(mn, s->end - s->start);
        mx = std::max(mx, s->end - s->start);
      }
      if (mx > 0) per_call.push_back(100.0 * static_cast<double>(mx - mn) / mx);
    }
    group.clear();
  };
  for (const SpanRef* s : shards) {
    const bool repeat = std::any_of(group.begin(), group.end(), [&](const SpanRef* g) {
      return g->e->arg_value == s->e->arg_value;
    });
    if (repeat) flush();
    group.push_back(s);
  }
  flush();
  return per_call.empty() ? 0.0 : profiling::Median(std::move(per_call));
}

}  // namespace

TraceSummary AnalyzeTrace(const TraceEvents& events, const Graph& root_graph) {
  std::unordered_map<std::string, int> node_class;
  for (const auto& n : root_graph.nodes()) {
    if (!n->alive) continue;
    node_class[n->name.substr(0, telemetry::kTraceNameCapacity - 1)] =
        ClassifyOp(n->type);
  }

  std::vector<SpanRef> spans(events.size());
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_req;
  std::unordered_map<int, std::vector<std::size_t>> by_thread;
  TraceSummary out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i].event;
    SpanRef& s = spans[i];
    s.e = &e;
    s.tid = events[i].tid;
    s.start = e.start_ns;
    s.end = e.start_ns + e.duration_ns;
    s.index = i;
    if (HasArg(e, "req")) {
      s.req = e.arg_value;
      by_req[s.req].push_back(i);
    }
    by_thread[s.tid].push_back(i);
    if (Named(s, "interpreter/invoke")) {
      out.invoke_ms.push_back(static_cast<double>(e.duration_ns) * 1e-6);
    }
  }
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start < spans[b].start;
    });
  }
  out.shard_imbalance_pct = ShardImbalancePct(spans);

  double request_ms = 0.0;
  std::vector<const SpanRef*> members;
  for (const auto& [req, list] : by_req) {
    const SpanRef* root = nullptr;
    const SpanRef* execute = nullptr;
    for (const std::size_t i : list) {
      if (Named(spans[i], kSpanRequest)) root = &spans[i];
      if (Named(spans[i], "serving/execute")) execute = &spans[i];
    }
    if (root == nullptr) continue;
    // The request's own spans (any thread), plus whatever its executing
    // thread recorded between the start of its execution and its
    // completion: the batch Invoke and the per-node and kernel spans carry
    // the batch's first lane id or none, and batchmates' input writes and
    // output reads run on this thread as part of this request's wait.
    const int exec_tid = execute != nullptr ? execute->tid : root->tid;
    const std::uint64_t w0 = execute != nullptr ? execute->start : root->start;
    members.clear();
    for (const std::size_t i : list) {
      if (&spans[i] != root) members.push_back(&spans[i]);
    }
    const auto& thread_spans = by_thread[exec_tid];
    auto it = std::lower_bound(
        thread_spans.begin(), thread_spans.end(), w0,
        [&](std::size_t i, std::uint64_t t) { return spans[i].start < t; });
    for (; it != thread_spans.end() && spans[*it].start <= root->end; ++it) {
      const SpanRef& s = spans[*it];
      if (s.end > root->end || s.req == req) continue;
      if (s.req >= 0 && (Named(s, kSpanRequest) || Named(s, "serving/execute"))) {
        continue;  // a batchmate's own request-level spans
      }
      members.push_back(&s);
    }
    members.push_back(root);
    const std::unordered_map<const SpanRef*, double> self = SelfTimes(members, *root);
    for (const SpanRef* s : members) {
      const double self_ms = self.at(s) * 1e-6;
      const double total_ms = static_cast<double>(s->end - s->start) * 1e-6;
      const bool node = IsNodeSpan(*s);
      auto& row = out.by_span[node ? "node/" + std::string(s->e->name)
                                   : std::string(s->e->name)];
      row.self_ms += self_ms;
      row.total_ms += total_ms;
      row.count += 1;
      if (node) {
        const auto c = node_class.find(s->e->name);
        auto& cls = out.by_op_class[OpClassName(
            c == node_class.end() ? kOpOther : c->second)];
        cls.self_ms += self_ms;
        cls.total_ms += total_ms;
        cls.count += 1;
      }
    }
    request_ms += static_cast<double>(root->end - root->start) * 1e-6;
    ++out.requests;
  }
  if (out.requests > 0) {
    const double n = static_cast<double>(out.requests);
    out.request_ms = request_ms / n;
    for (auto* table : {&out.by_span, &out.by_op_class}) {
      for (auto& [name, row] : *table) {
        row.self_ms /= n;
        row.total_ms /= n;
        row.count /= n;
      }
    }
  }
  return out;
}

Status WriteLayersJson(const TraceSummary& summary, const std::string& workload,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"requests\": %lld,\n"
               "  \"request_ms\": %.6f,\n"
               "  \"note\": \"means per request; self time = span duration "
               "minus the part its child spans cover\",\n",
               workload.c_str(), static_cast<long long>(summary.requests),
               summary.request_ms);
  const auto table = [f](const char* key,
                         const std::map<std::string, TraceSummary::Row>& rows,
                         bool last) {
    std::vector<std::pair<std::string, TraceSummary::Row>> sorted(rows.begin(),
                                                                  rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.self_ms > b.second.self_ms;
    });
    std::fprintf(f, "  \"%s\": [\n", key);
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const auto& [name, row] = sorted[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"self_ms\": %.6f, \"total_ms\": "
                   "%.6f, \"count\": %.3f}%s\n",
                   telemetry::JsonEscape(name).c_str(), row.self_ms, row.total_ms,
                   row.count, i + 1 < sorted.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", last ? "" : ",");
  };
  table("spans", summary.by_span, false);
  table("op_classes", summary.by_op_class, true);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::DataLoss("short write to " + path);
}

Status WriteChromeTrace(const TraceEvents& setup, const TraceEvents& run,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::uint64_t epoch = UINT64_MAX;
  for (const auto* set : {&setup, &run}) {
    for (const auto& ce : *set) epoch = std::min(epoch, ce.event.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
               "{\"name\":\"set-up\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
               "{\"name\":\"traced run\"}}");
  int pid = 1;
  for (const auto* set : {&setup, &run}) {
    for (const auto& ce : *set) {
      const TraceEvent& e = ce.event;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
                   telemetry::JsonEscape(e.name).c_str(),
                   e.category != nullptr ? e.category : "lce",
                   static_cast<double>(e.start_ns - epoch) * 1e-3,
                   static_cast<double>(e.duration_ns) * 1e-3, pid, ce.tid);
      if (e.arg_name[0] != '\0') {
        std::fprintf(f, ",\"args\":{\"%s\":%lld}", e.arg_name,
                     static_cast<long long>(e.arg_value));
      }
      std::fputc('}', f);
    }
    ++pid;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::DataLoss("short write to " + path);
}

}  // namespace lce::e2e
