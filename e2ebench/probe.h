// Host-speed probe. On a shared machine the speed of one CPU drifts by tens
// of percent over minutes, and thread CPU time drifts with it, so two runs
// of the same code minutes apart disagree by more than any useful bound.
// The probe is a fixed piece of CPU work that does not touch the library --
// hash-map probes keyed by short strings and small allocations, the mix
// parsing, optimizing and executing lean on -- timed in short slices
// interleaved with the benchmark's own work. Timing metrics are reported at
// the probe's reference speed: measured x (kReferenceMs / median slice).
// That is a paired ratio within one run, rescaled to milliseconds; the raw
// figures and the factor are written next to it.
#ifndef OODB_E2EBENCH_PROBE_H_
#define OODB_E2EBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "e2ebench/stats.h"

namespace oodb::e2e {

class SpeedProbe {
 public:
  using Clock = std::chrono::steady_clock;

  /// Median slice time on the machine the benchmark was calibrated on (a
  /// 4-vCPU container, when the benchmark landed). Only rescales units.
  static constexpr double kReferenceMs = 0.70;
  /// Gap between slices inside a timed loop.
  static constexpr std::chrono::milliseconds kInterval{20};

  /// Runs one slice and records its duration.
  void Slice() {
    const Clock::time_point t0 = Clock::now();
    Work();
    const Clock::time_point t1 = Clock::now();
    slices_ms_.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    spent_s_ += std::chrono::duration<double>(t1 - t0).count();
    last_ = t1;
  }

  /// Runs a slice when kInterval has passed since the last one.
  void Tick() {
    if (Clock::now() - last_ >= kInterval) Slice();
  }

  /// Reference time over measured time: multiply a duration by this (and
  /// divide a rate by it) to state it at the reference speed.
  double Factor() const { return kReferenceMs / Median(slices_ms_); }
  double median_ms() const { return Median(slices_ms_); }
  size_t slices() const { return slices_ms_.size(); }
  /// Seconds spent inside slices (to be left out of timed work).
  double spent_s() const { return spent_s_; }

 private:
  void Work() {
    std::unordered_map<uint64_t, std::string> map;
    std::vector<std::unique_ptr<uint64_t>> boxes;
    uint64_t x = 3;
    uint64_t acc = 0;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      map[x % 2048] = std::to_string(x);
    }
    for (int i = 0; i < 8000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      auto it = map.find(x % 4096);
      if (it != map.end()) acc += it->second.size();
    }
    for (int i = 0; i < 4000; ++i) {
      boxes.push_back(std::make_unique<uint64_t>(acc + i));
    }
    sink_ = acc + *boxes.back();
  }

  std::vector<double> slices_ms_;
  double spent_s_ = 0.0;
  Clock::time_point last_{};
  volatile uint64_t sink_ = 0;
};

}  // namespace oodb::e2e

#endif  // OODB_E2EBENCH_PROBE_H_
