#include "host_probe.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <ctime>
#include <thread>
#include <vector>

namespace e2e {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Softened direct-sum accelerations of kTargets bodies from kSources
/// sources held in L1/L2: the floating-point and load mix of a force
/// kernel, with no dependence on the engine.
constexpr int kSources = 4096;
constexpr int kTargets = 64;
constexpr int kProbeThreads = 4;

struct Bodies {
  std::vector<float> x, y, z, m;
  Bodies() : x(kSources), y(kSources), z(kSources), m(kSources) {
    for (int i = 0; i < kSources; ++i) {
      x[i] = std::sin(static_cast<float>(i));
      y[i] = std::cos(1.3f * static_cast<float>(i));
      z[i] = std::sin(0.7f * static_cast<float>(i));
      m[i] = 1.0f / kSources;
    }
  }
};

const Bodies& bodies() {
  static const Bodies b;
  return b;
}

std::atomic<float> g_sink{0.0f}; // keeps the kernel from being optimised away

/// Thread-CPU seconds of one probe on the calling thread.
double probe_seconds() {
  const Bodies& b = bodies();
  const double t0 = thread_cpu_seconds();
  float sum = 0.0f;
  for (int i = 0; i < kTargets; ++i) {
    float ax = 0.0f, ay = 0.0f, az = 0.0f;
    for (int j = 0; j < kSources; ++j) {
      const float dx = b.x[j] - b.x[i];
      const float dy = b.y[j] - b.y[i];
      const float dz = b.z[j] - b.z[i];
      const float rinv = 1.0f / std::sqrt(dx * dx + dy * dy + dz * dz + 1e-4f);
      const float s = b.m[j] * rinv * rinv * rinv;
      ax += s * dx;
      ay += s * dy;
      az += s * dz;
    }
    sum += ax + ay + az;
  }
  g_sink.store(sum, std::memory_order_relaxed);
  return thread_cpu_seconds() - t0;
}

} // namespace

double host_scale() {
  (void)bodies(); // built once, before the timed probes
  std::array<double, kProbeThreads> t{};
  {
    std::vector<std::jthread> threads;
    for (int k = 1; k < kProbeThreads; ++k) {
      threads.emplace_back([&t, k] { t[k] = probe_seconds(); });
    }
    t[0] = probe_seconds();
  }
  std::sort(t.begin(), t.end());
  const double median =
      0.5 * (t[(kProbeThreads - 1) / 2] + t[kProbeThreads / 2]);
  return kProbeReferenceSeconds / median;
}

} // namespace e2e
