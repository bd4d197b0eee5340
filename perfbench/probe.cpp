#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "services/service.hpp"

namespace perfbench {

namespace {

using moteur::enactor::ExecOptions;
using moteur::enactor::Outcome;
using moteur::services::Inputs;
using moteur::services::Service;

// Every thread that allocates or traces gets a slot of its own for the life
// of the process, so counting never contends. Batches start fresh worker
// threads, hence the generous bound.
constexpr int kMaxThreads = 2048;
constexpr int kMaxDepth = 32;
// Spans kept for the trace file; aggregates cover every span regardless.
constexpr std::uint64_t kMaxRetainedSpans = 100000;

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> by_layer[kLayers];
};
AllocSlot g_alloc[kMaxThreads];
std::atomic<int> g_next_slot{0};
std::atomic<std::uint64_t> g_current_run{0};

thread_local int tl_slot = -1;
thread_local Layer tl_layer = Layer::kNone;

int thread_slot() {
  if (tl_slot < 0) {
    const int slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxThreads) {
      std::fputs("perfbench: too many threads for the probe slots\n", stderr);
      std::abort();
    }
    tl_slot = slot;
  }
  return tl_slot;
}

std::size_t layer_index(Layer layer) { return static_cast<std::size_t>(layer); }

/// Attribute allocations to the benchmark itself for the current scope.
class BenchScope {
 public:
  BenchScope() : saved_(tl_layer) { tl_layer = Layer::kBench; }
  ~BenchScope() { tl_layer = saved_; }
  BenchScope(const BenchScope&) = delete;
  BenchScope& operator=(const BenchScope&) = delete;

 private:
  Layer saved_;
};

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t run;
  std::int64_t start_ns;
  std::int64_t end_ns;
  Layer layer;
};

struct TraceSlot {
  LayerStats layer[kLayers];
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> backend_wait_ns;
  std::vector<std::int64_t> channel_ns;
  std::uint64_t recorded = 0;
  std::uint64_t next_local = 0;
};
TraceSlot g_trace[kMaxThreads];
std::atomic<std::uint64_t> g_retained{0};

struct Frame {
  Layer layer;
  Layer saved;
  std::int64_t start;
  std::int64_t child_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t run;
};
thread_local Frame tl_frames[kMaxDepth];
thread_local int tl_depth = 0;

/// Timestamps of one submission, shared by the execute() span, the service
/// body on its worker, and the completion callback. The backend's own
/// completion hand-off orders the worker's writes before the callback reads.
struct Submission {
  std::uint64_t run = 0;
  std::uint64_t execute_span = 0;
  std::int64_t execute_start = 0;
  std::int64_t body_start = 0;
  std::int64_t body_end = 0;
};

/// Forwards every call to the wrapped service, timing the bodies.
class ProbeService final : public Service {
 public:
  ProbeService(std::shared_ptr<Service> inner, std::shared_ptr<Submission> sub)
      : Service(inner->id()), inner_(std::move(inner)), sub_(std::move(sub)) {}

  std::vector<std::string> input_ports() const override { return inner_->input_ports(); }
  std::vector<std::string> output_ports() const override { return inner_->output_ports(); }
  std::size_t max_concurrent_invocations() const override {
    return inner_->max_concurrent_invocations();
  }
  moteur::services::Result invoke(const Inputs& inputs) override {
    return body([&] { return inner_->invoke(inputs); });
  }
  moteur::grid::JobRequest job_profile(const Inputs& inputs) const override {
    return inner_->job_profile(inputs);
  }
  moteur::services::Result synthesize_outputs(const Inputs& inputs) const override {
    return body([&] { return inner_->synthesize_outputs(inputs); });
  }
  bool deterministic() const override { return inner_->deterministic(); }
  std::uint64_t content_digest() const override { return inner_->content_digest(); }

 private:
  template <typename Fn>
  moteur::services::Result body(const Fn& fn) const {
    if (sub_->body_start == 0) sub_->body_start = now_ns();
    moteur::services::Result result;
    {
      Span span(Layer::kBody, sub_->run, sub_->execute_span);
      result = fn();
    }
    sub_->body_end = now_ns();
    return result;
  }

  std::shared_ptr<Service> inner_;
  std::shared_ptr<Submission> sub_;
};

/// Chain runs carry their run id as the source tokens' payload, which the
/// zero-work services pass along; any other run uses current_run().
std::uint64_t run_of(const std::vector<Inputs>& bindings) {
  for (const auto& [port, token] : bindings.front()) {
    if (token.holds<std::uint64_t>()) return token.as<std::uint64_t>();
  }
  return current_run();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kNone: return "none";
    case Layer::kBench: return "bench";
    case Layer::kSubmit: return "service.submit";
    case Layer::kRun: return "enactor.run";
    case Layer::kExecute: return "enactor.execute";
    case Layer::kBody: return "services.body";
    case Layer::kCallback: return "enactor.callback";
    case Layer::kDrive: return "backend.drive";
    case Layer::kObs: return "obs.on_event";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t allocations() {
  std::uint64_t sum = 0;
  for (std::size_t layer = 0; layer < kLayers; ++layer) {
    sum += allocations(static_cast<Layer>(layer));
  }
  return sum;
}

std::uint64_t allocations(Layer layer) {
  const int used = std::min(g_next_slot.load(std::memory_order_relaxed), kMaxThreads);
  std::uint64_t sum = 0;
  for (int slot = 0; slot < used; ++slot) {
    sum += g_alloc[slot].by_layer[layer_index(layer)].load(std::memory_order_relaxed);
  }
  return sum;
}

void set_current_run(std::uint64_t run) { g_current_run.store(run, std::memory_order_relaxed); }
std::uint64_t current_run() { return g_current_run.load(std::memory_order_relaxed); }

void reset_trace() {
  BenchScope bench;
  const int used = std::min(g_next_slot.load(), kMaxThreads);
  for (int slot = 0; slot < used; ++slot) {
    TraceSlot& ts = g_trace[slot];
    for (LayerStats& stats : ts.layer) stats = LayerStats{};
    ts.spans.clear();
    ts.spans.shrink_to_fit();
    ts.backend_wait_ns.clear();
    ts.channel_ns.clear();
    ts.recorded = 0;
  }
  g_retained = 0;
}

TraceTotals trace_totals() {
  TraceTotals totals;
  const int used = std::min(g_next_slot.load(), kMaxThreads);
  for (int slot = 0; slot < used; ++slot) {
    const TraceSlot& ts = g_trace[slot];
    for (std::size_t layer = 0; layer < kLayers; ++layer) {
      totals.layer[layer].count += ts.layer[layer].count;
      totals.layer[layer].total_ns += ts.layer[layer].total_ns;
      totals.layer[layer].self_ns += ts.layer[layer].self_ns;
    }
    totals.backend_wait_ns.insert(totals.backend_wait_ns.end(), ts.backend_wait_ns.begin(),
                                  ts.backend_wait_ns.end());
    totals.channel_ns.insert(totals.channel_ns.end(), ts.channel_ns.begin(),
                             ts.channel_ns.end());
    totals.spans += ts.recorded;
  }
  return totals;
}

bool write_trace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = 0;
  const int used = std::min(g_next_slot.load(), kMaxThreads);
  for (int slot = 0; slot < used; ++slot) {
    for (const SpanRecord& s : g_trace[slot].spans) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::fputs("{\"traceEvents\": [", out);
  bool first = true;
  for (int slot = 0; slot < used; ++slot) {
    for (const SpanRecord& s : g_trace[slot].spans) {
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"run\": %llu}}",
                   first ? "" : ",", layer_name(s.layer), slot,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run));
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

Span::Span(Layer layer, std::uint64_t run, std::uint64_t cause) {
  const int slot = thread_slot();
  if (tl_depth >= kMaxDepth) {
    std::fputs("perfbench: span nesting too deep\n", stderr);
    std::abort();
  }
  id_ = (static_cast<std::uint64_t>(slot + 1) << 40) | ++g_trace[slot].next_local;
  Frame& frame = tl_frames[tl_depth];
  frame.layer = layer;
  frame.saved = tl_layer;
  frame.child_ns = 0;
  frame.id = id_;
  frame.parent = tl_depth > 0 ? tl_frames[tl_depth - 1].id : cause;
  frame.run = run;
  ++tl_depth;
  tl_layer = layer;
  frame.start = now_ns();
}

Span::~Span() {
  const std::int64_t end = now_ns();
  const Frame& frame = tl_frames[--tl_depth];
  tl_layer = Layer::kBench;
  const std::int64_t duration = end - frame.start;
  TraceSlot& ts = g_trace[thread_slot()];
  LayerStats& stats = ts.layer[layer_index(frame.layer)];
  ++stats.count;
  stats.total_ns += static_cast<std::uint64_t>(duration);
  stats.self_ns +=
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, duration - frame.child_ns));
  if (tl_depth > 0) tl_frames[tl_depth - 1].child_ns += duration;
  ++ts.recorded;
  if (g_retained.fetch_add(1, std::memory_order_relaxed) < kMaxRetainedSpans) {
    ts.spans.push_back(
        SpanRecord{frame.id, frame.parent, frame.run, frame.start, end, frame.layer});
  }
  tl_layer = frame.saved;
}

TimedBackend::TimedBackend(moteur::enactor::ExecutionBackend& inner,
                           std::unique_ptr<moteur::enactor::ExecutionBackend> owned)
    : owned_(std::move(owned)), inner_(inner) {}

void TimedBackend::execute(std::shared_ptr<Service> service, std::vector<Inputs> bindings,
                           Callback on_complete) {
  submit(std::move(service), std::move(bindings), nullptr, std::move(on_complete));
}

void TimedBackend::execute(std::shared_ptr<Service> service, std::vector<Inputs> bindings,
                           ExecOptions options, Callback on_complete) {
  submit(std::move(service), std::move(bindings), &options, std::move(on_complete));
}

void TimedBackend::submit(std::shared_ptr<Service> service, std::vector<Inputs> bindings,
                          const ExecOptions* options, Callback on_complete) {
  std::shared_ptr<Submission> sub;
  std::shared_ptr<Service> probe;
  Callback timed;
  {
    BenchScope bench;
    sub = std::make_shared<Submission>();
    sub->run = run_of(bindings);
    probe = std::make_shared<ProbeService>(std::move(service), sub);
    timed = [sub, on_complete = std::move(on_complete)](Outcome outcome) mutable {
      const std::int64_t start = now_ns();
      {
        BenchScope bench_samples;
        TraceSlot& ts = g_trace[thread_slot()];
        if (sub->body_start != 0) ts.backend_wait_ns.push_back(sub->body_start - sub->execute_start);
        if (sub->body_end != 0) ts.channel_ns.push_back(start - sub->body_end);
      }
      Span span(Layer::kCallback, sub->run);
      on_complete(std::move(outcome));
    };
  }
  Span span(Layer::kExecute, sub->run);
  sub->execute_span = span.id();
  sub->execute_start = now_ns();
  if (options != nullptr) {
    inner_.execute(std::move(probe), std::move(bindings), *options, std::move(timed));
  } else {
    inner_.execute(std::move(probe), std::move(bindings), std::move(timed));
  }
}

bool TimedBackend::drive(const std::function<bool()>& done) {
  Span span(Layer::kDrive, 0);
  return inner_.drive(done);
}

std::unique_ptr<moteur::enactor::ExecutionBackend> TimedBackend::make_channel() {
  std::unique_ptr<moteur::enactor::ExecutionBackend> channel = inner_.make_channel();
  if (channel == nullptr) return nullptr;
  moteur::enactor::ExecutionBackend& inner = *channel;
  return std::make_unique<TimedBackend>(inner, std::move(channel));
}

}  // namespace perfbench

// Counting allocator: every operator new bumps the calling thread's counter
// for the layer whose span is innermost on that thread.
void* operator new(std::size_t size) {
  using namespace perfbench;
  g_alloc[thread_slot()].by_layer[layer_index(tl_layer)].fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
