#include "grid/storage_element.hpp"

#include <algorithm>

namespace moteur::grid {

StorageElement::StorageElement(sim::Simulator& simulator, std::string name,
                               double latency_seconds, double bandwidth_mb_per_s,
                               std::size_t channels)
    : simulator_(simulator),
      name_(name),
      latency_seconds_(latency_seconds),
      bandwidth_mb_per_s_(bandwidth_mb_per_s),
      channels_(simulator, channels) {}

void StorageElement::set_outages(std::vector<StorageOutageWindow> outages) {
  outages_ = std::move(outages);
  std::sort(outages_.begin(), outages_.end(),
            [](const StorageOutageWindow& a, const StorageOutageWindow& b) {
              return a.start_seconds < b.start_seconds;
            });
}

bool StorageElement::available_at(double t) const {
  for (const auto& w : outages_) {
    if (t < w.start_seconds) return true;  // sorted: no later window covers t
    if (t < w.start_seconds + w.duration_seconds) return false;
  }
  return true;
}

double StorageElement::next_available(double t) const {
  for (const auto& w : outages_) {
    if (t < w.start_seconds) return t;
    if (t < w.start_seconds + w.duration_seconds) return w.start_seconds + w.duration_seconds;
  }
  return t;
}

double StorageElement::nominal_seconds(double megabytes) const {
  if (megabytes <= 0.0) return 0.0;
  return latency_seconds_ + megabytes / bandwidth_mb_per_s_;
}

void StorageElement::transfer(double megabytes, sim::Function<void(double)> on_done) {
  move_data(nominal_seconds(megabytes), std::move(on_done));
}

void StorageElement::move_data(double seconds, sim::Function<void(double)> on_done) {
  const auto transfer = transfers_.insert({seconds, std::move(on_done)});
  if (seconds <= 0.0) {
    simulator_.schedule(0.0, [this, transfer] { transfers_.take(transfer).on_done(0.0); });
    return;
  }
  channels_.acquire([this, transfer] {
    simulator_.schedule(transfers_[transfer].seconds, [this, transfer] {
      channels_.release();
      const Transfer done = transfers_.take(transfer);
      done.on_done(done.seconds);
    });
  });
}

double StorageElement::pairwise_seconds(const StorageElement& from,
                                        double megabytes) const {
  if (megabytes <= 0.0) return 0.0;
  const double bandwidth = std::min(bandwidth_mb_per_s_, from.bandwidth_mb_per_s_);
  return latency_seconds_ + from.latency_seconds_ + megabytes / bandwidth;
}

void StorageElement::transfer_from(const StorageElement& from, double megabytes,
                                   sim::Function<void(double)> on_done) {
  move_data(pairwise_seconds(from, megabytes), std::move(on_done));
}

}  // namespace moteur::grid
