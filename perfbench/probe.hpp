// Measurement probes of the benchmark: a counting operator new attributed to
// the layer span open on the calling thread, in-memory spans with self-time
// accounting, and a timing decorator around enactor::ExecutionBackend. All
// of it sits outside the program: spans are opened by the benchmark around
// the calls it makes into each layer's public interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "enactor/backend.hpp"

namespace perfbench {

/// The boundaries a span can mark. Each span belongs to one layer; a layer's
/// self time is its spans' duration minus what their child spans cover.
enum class Layer : std::uint8_t {
  kNone,      // no span open (shard loops, the generator, set-up)
  kBench,     // the benchmark's own bookkeeping while tracing
  kSubmit,    // service: RunService::submit
  kRun,       // Enactor::run, one whole single-threaded run
  kExecute,   // enactor -> backend: ExecutionBackend::execute
  kBody,      // a service body: Service::invoke / synthesize_outputs
  kCallback,  // a completion callback the backend hands back to the engine
  kDrive,     // ExecutionBackend::drive (sim + grid on the simulated grid)
  kObs,       // obs: RunRecorder::on_event
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

std::int64_t now_ns();

/// Heap allocations made so far by every thread, in total or while a span of
/// `layer` was the innermost one open on the allocating thread.
std::uint64_t allocations();
std::uint64_t allocations(Layer layer);

/// Run id stamped on spans whose run cannot be read from the tokens (the
/// single-threaded bronze runs set it before each Enactor::run).
void set_current_run(std::uint64_t run);
std::uint64_t current_run();

struct LayerStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct TraceTotals {
  LayerStats layer[kLayers];
  /// execute() -> service body start, per submission.
  std::vector<std::int64_t> backend_wait_ns;
  /// Service body return -> completion callback start, per submission.
  std::vector<std::int64_t> channel_ns;
  std::uint64_t spans = 0;
};

/// Forget every span and sample. Call only while no other thread traces.
void reset_trace();
/// Sum of every thread's spans since reset_trace(). Same restriction.
TraceTotals trace_totals();
/// Write the retained spans as a Chrome trace (chrome://tracing, Perfetto).
bool write_trace(const std::string& path);

/// One span: opened by the constructor, closed by the destructor. The
/// parent is the span open on the same thread, or `cause` when none is (a
/// service body on a worker thread names the execute() that submitted it).
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t run = current_run(), std::uint64_t cause = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
};

/// Decorator over any ExecutionBackend that times execute(), drive(), the
/// completion callbacks handed back to the engine, and the service bodies
/// (through a forwarding Service wrapper). Channels from make_channel() are
/// decorated the same way. Everything else forwards unchanged.
class TimedBackend final : public moteur::enactor::ExecutionBackend {
 public:
  explicit TimedBackend(moteur::enactor::ExecutionBackend& inner,
                        std::unique_ptr<moteur::enactor::ExecutionBackend> owned = nullptr);

  void execute(std::shared_ptr<moteur::services::Service> service,
               std::vector<moteur::services::Inputs> bindings, Callback on_complete) override;
  void execute(std::shared_ptr<moteur::services::Service> service,
               std::vector<moteur::services::Inputs> bindings,
               moteur::enactor::ExecOptions options, Callback on_complete) override;
  double now() const override { return inner_.now(); }
  TimerId schedule(double delay_seconds, std::function<void()> fn) override {
    return inner_.schedule(delay_seconds, std::move(fn));
  }
  void cancel(TimerId id) override { inner_.cancel(id); }
  bool drive(const std::function<bool()>& done) override;
  void set_metrics(moteur::obs::MetricsRegistry* metrics) override {
    inner_.set_metrics(metrics);
  }
  void set_event_sink(std::function<void(const moteur::obs::RunEvent&)> sink) override {
    inner_.set_event_sink(std::move(sink));
  }
  void set_health(moteur::grid::CeHealth* health) override { inner_.set_health(health); }
  void add_health(moteur::grid::CeHealth* health) override { inner_.add_health(health); }
  void remove_health(moteur::grid::CeHealth* health) override {
    inner_.remove_health(health);
  }
  void notify() override { inner_.notify(); }
  moteur::data::ReplicaCatalog* catalog() const override { return inner_.catalog(); }
  std::unique_ptr<moteur::enactor::ExecutionBackend> make_channel() override;

 private:
  void submit(std::shared_ptr<moteur::services::Service> service,
              std::vector<moteur::services::Inputs> bindings,
              const moteur::enactor::ExecOptions* options, Callback on_complete);

  std::unique_ptr<moteur::enactor::ExecutionBackend> owned_;
  moteur::enactor::ExecutionBackend& inner_;
};

}  // namespace perfbench
