// Real-time edge inference: the deployment scenario the paper's
// introduction motivates (on-device CV with real-time responses). Simulates
// a camera stream -- synthetic frames arriving one by one -- and reports
// sustained throughput plus the latency distribution (p50/p90/p99), the
// numbers an application engineer sizes a frame budget against.
//
// Usage: ./build/examples/realtime_stream [small|medium|large] [frames]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "lce.h"

using namespace lce;

namespace {

// A slowly-varying synthetic "camera" frame: drifting gradients + a moving
// blob, so consecutive frames differ like real video.
void FillFrame(Tensor& input, int t) {
  const int h = static_cast<int>(input.shape().dim(1));
  const int w = static_cast<int>(input.shape().dim(2));
  const float cx = 0.5f * w + 0.3f * w * std::sin(t * 0.07f);
  const float cy = 0.5f * h + 0.3f * h * std::cos(t * 0.05f);
  float* p = input.data<float>();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float dx = (x - cx) / (0.15f * w);
      const float dy = (y - cy) / (0.15f * h);
      const float blob = std::exp(-(dx * dx + dy * dy));
      float* px = p + (static_cast<std::int64_t>(y) * w + x) * 3;
      px[0] = 2.0f * x / w - 1.0f + 0.1f * std::sin(t * 0.11f);
      px[1] = 2.0f * y / h - 1.0f;
      px[2] = 2.0f * blob - 0.5f;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  QuickNetConfig cfg = QuickNetMediumConfig();
  int frames = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "small") == 0) cfg = QuickNetSmallConfig();
    else if (std::strcmp(argv[i], "large") == 0) cfg = QuickNetLargeConfig();
    else frames = std::max(10, std::atoi(argv[i]));
  }

  Graph g = BuildQuickNet(cfg, 224);
  LCE_CHECK(Convert(g).ok());
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  std::printf("Streaming %d frames through %s (224x224, single thread)...\n",
              frames, cfg.name.c_str());

  // Warmup (first-frame latency includes cache warm-up; report separately).
  Tensor input = exec.input(0);
  FillFrame(input, 0);
  const double w0 = profiling::NowSeconds();
  exec.Invoke();
  const double first_frame = profiling::NowSeconds() - w0;

  std::vector<double> latencies;
  latencies.reserve(frames);
  const double stream_start = profiling::NowSeconds();
  for (int t = 1; t <= frames; ++t) {
    FillFrame(input, t);
    const double t0 = profiling::NowSeconds();
    exec.Invoke();
    latencies.push_back(profiling::NowSeconds() - t0);
  }
  const double wall = profiling::NowSeconds() - stream_start;

  std::printf("first frame (cold): %.1f ms\n", first_frame * 1e3);
  std::printf("sustained: %.1f FPS over %d frames\n", frames / wall, frames);
  std::printf("latency  p50 %.1f ms   p90 %.1f ms   p99 %.1f ms   max %.1f ms\n",
              1e3 * profiling::Percentile(latencies, 0.50),
              1e3 * profiling::Percentile(latencies, 0.90),
              1e3 * profiling::Percentile(latencies, 0.99),
              1e3 * profiling::Range(latencies).max);
  const double budget_30fps = 1.0 / 30.0;
  std::printf("frame budget at 30 FPS: %.1f ms -> headroom %.1f ms at p99\n",
              budget_30fps * 1e3,
              (budget_30fps - profiling::Percentile(latencies, 0.99)) * 1e3);
  return 0;
}
