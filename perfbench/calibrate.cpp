#include "calibrate.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "probe.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kKeys = 256;
constexpr std::size_t kRounds = 4;

// Keeps the optimiser from dropping the kernel.
volatile std::uint64_t g_sink = 0;

std::uint64_t kernel() {
  std::uint64_t acc = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::unordered_map<std::string, std::vector<std::uint64_t>> by_name;
    std::map<std::uint64_t, std::shared_ptr<std::string>> ordered;
    std::vector<std::function<std::uint64_t(std::uint64_t)>> calls;
    for (std::size_t i = 0; i < kKeys; ++i) {
      std::string key = "processor-" + std::to_string(i * 7919 % kKeys) + "/port-out";
      by_name[key].push_back(i);
      auto value = std::make_shared<std::string>(key);
      ordered.emplace(i * 2654435761u % 100003, value);
      calls.emplace_back([value, i](std::uint64_t x) { return x + value->size() + i; });
    }
    for (std::size_t i = 0; i < kKeys; ++i) {
      const auto it = by_name.find("processor-" + std::to_string(i) + "/port-out");
      if (it != by_name.end()) acc += it->second.front();
      acc = calls[i](acc);
    }
    for (auto it = ordered.begin(); it != ordered.end();) {
      acc += it->second->size();
      it = (it->first & 1) ? ordered.erase(it) : std::next(it);
    }
    acc += ordered.size();
  }
  return acc;
}

}  // namespace

double reference_seconds() {
  const std::int64_t start = now_ns();
  g_sink = g_sink + kernel();
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace perfbench
