#include "obs/telemetry.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur::obs {

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// format_number, with NaN and infinities written as 0.
std::string json_number(double value) {
  return std::isfinite(value) ? format_number(value) : "0";
}

void append_labels(std::ostringstream& out, const Labels& labels) {
  out << "\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  out << "}";
}

}  // namespace

std::string telemetry_frame_json(const MetricsSnapshot& current,
                                 const MetricsSnapshot& delta,
                                 const std::vector<ShardSample>& shards,
                                 std::uint64_t seq) {
  std::ostringstream out;
  out << "{\"ts\":" << json_number(current.at) << ",\"seq\":" << seq
      << ",\"interval_seconds\":" << json_number(delta.interval) << ",\"metrics\":[";
  bool first_metric = true;
  for (const MetricsSnapshot::Family& family : current.families) {
    const MetricsSnapshot::Family* window = delta.find_family(family.name);
    for (const MetricsSnapshot::Series& series : family.series) {
      const MetricsSnapshot::Series* w =
          window ? [&]() -> const MetricsSnapshot::Series* {
            for (const MetricsSnapshot::Series& c : window->series) {
              if (c.labels == series.labels) return &c;
            }
            return nullptr;
          }()
                 : nullptr;
      if (!first_metric) out << ",";
      first_metric = false;
      out << "{\"name\":\"" << json_escape(family.name) << "\",\"type\":\""
          << to_string(family.type) << "\",";
      append_labels(out, series.labels);
      switch (family.type) {
        case MetricType::kCounter: {
          const double d = w ? w->value : 0.0;
          out << ",\"value\":" << json_number(series.value)
              << ",\"delta\":" << json_number(d)
              << ",\"rate\":" << json_number(w ? delta.rate(*w) : 0.0);
          break;
        }
        case MetricType::kGauge:
          out << ",\"value\":" << json_number(series.value)
              << ",\"max\":" << json_number(series.max_seen);
          break;
        case MetricType::kHistogram: {
          out << ",\"count\":" << series.count
              << ",\"sum\":" << json_number(series.sum)
              << ",\"delta_count\":" << (w ? w->count : 0)
              << ",\"delta_sum\":" << json_number(w ? w->sum : 0.0);
          const MetricsSnapshot::Series& q = w ? *w : series;
          out << ",\"window_p50\":"
              << json_number(bucket_percentile(q.bounds, q.buckets, 50.0))
              << ",\"window_p95\":"
              << json_number(bucket_percentile(q.bounds, q.buckets, 95.0))
              << ",\"window_p99\":"
              << json_number(bucket_percentile(q.bounds, q.buckets, 99.0));
          break;
        }
      }
      out << "}";
    }
  }
  out << "],\"shards\":[";
  bool first_shard = true;
  for (const ShardSample& shard : shards) {
    if (!first_shard) out << ",";
    first_shard = false;
    out << "{\"shard\":" << shard.shard << ",\"runs\":" << shard.runs
        << ",\"invocations\":" << shard.invocations
        << ",\"active\":" << json_number(shard.active)
        << ",\"queued\":" << json_number(shard.queued) << "}";
  }
  out << "]}";
  return out.str();
}

TelemetryHub::TelemetryHub(Config config, SnapshotFn snapshot, ScrapeFn scrape,
                           ShardsFn shards)
    : config_(std::move(config)),
      snapshot_(std::move(snapshot)),
      scrape_(std::move(scrape)),
      shards_(std::move(shards)) {}

TelemetryHub::~TelemetryHub() { stop(); }

void TelemetryHub::start() {
  MOTEUR_REQUIRE(!running_, Error, "telemetry hub already started");
  MOTEUR_REQUIRE(config_.interval_seconds > 0.0, Error,
                 "telemetry interval must be positive");
  if (!config_.jsonl_path.empty()) {
    jsonl_.open(config_.jsonl_path, std::ios::trunc);
    MOTEUR_REQUIRE(jsonl_.is_open(), Error,
                   "cannot open telemetry frame file '" + config_.jsonl_path + "'");
  }
  if (config_.scrape_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    MOTEUR_REQUIRE(listen_fd_ >= 0, Error, "telemetry scrape socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.scrape_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      const std::string why = std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      MOTEUR_REQUIRE(false, Error,
                     "cannot bind telemetry scrape endpoint on 127.0.0.1:" +
                         std::to_string(config_.scrape_port) + ": " + why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port_.store(static_cast<int>(ntohs(bound.sin_port)));
    }
  }
  stop_requested_ = false;
  running_ = true;
  tick();  // frame 0: even a run shorter than one interval leaves evidence
  sampler_ = std::thread([this] { sampler_loop(); });
  if (listen_fd_ >= 0) acceptor_ = std::thread([this] { accept_loop(); });
}

void TelemetryHub::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (sampler_.joinable()) sampler_.join();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  tick();  // final frame: the post-run totals always land in the stream
  if (jsonl_.is_open()) jsonl_.close();
  running_ = false;
}

void TelemetryHub::sampler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const auto wait = std::chrono::duration<double>(config_.interval_seconds);
    if (cv_.wait_for(lock, wait, [this] { return stop_requested_; })) break;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void TelemetryHub::tick() {
  MetricsSnapshot current = snapshot_ ? snapshot_() : MetricsSnapshot{};
  current.at = wall_now();
  const MetricsSnapshot delta =
      have_previous_ ? current.delta_since(previous_) : current;
  const std::vector<ShardSample> shards =
      shards_ ? shards_() : std::vector<ShardSample>{};
  if (jsonl_.is_open()) {
    jsonl_ << telemetry_frame_json(current, delta, shards, seq_) << "\n";
    jsonl_.flush();
  }
  ++seq_;
  frames_.fetch_add(1);
  previous_ = std::move(current);
  have_previous_ = true;
}

void TelemetryHub::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // shutdown() from stop(), or a fatal socket error
    }
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Read the request head (we only need the request line).
    std::string head;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      head.append(buf, static_cast<std::size_t>(n));
    }
    std::string path = "/";
    const std::size_t sp1 = head.find(' ');
    if (sp1 != std::string::npos) {
      const std::size_t sp2 = head.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) path = head.substr(sp1 + 1, sp2 - sp1 - 1);
    }
    std::string status = "200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::string body;
    if (path == "/metrics" || path == "/") {
      body = scrape_ ? scrape_() : "";
      scrapes_.fetch_add(1);
    } else {
      status = "404 Not Found";
      content_type = "text/plain; charset=utf-8";
      body = "only /metrics is served here\n";
    }
    std::ostringstream response;
    response << "HTTP/1.1 " << status << "\r\n"
             << "Content-Type: " << content_type << "\r\n"
             << "Content-Length: " << body.size() << "\r\n"
             << "Connection: close\r\n\r\n"
             << body;
    const std::string out = response.str();
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
}

}  // namespace moteur::obs
