// Per-operator profiler for any zoo model -- the tool behind the paper's
// Figure 5 / Table 4 analyses (the role TFLite's benchmark_model plays for
// LCE). Prints the operator-category breakdown and the costliest layers.
//
// Usage: ./build/examples/profile_model [ModelName|model.lcem] [--threads=N]
//        ./build/examples/profile_model --list
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "profiling/model_profiler.h"

using namespace lce;

int main(int argc, char** argv) {
  std::string model_name = "QuickNet";
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const auto& m : AllZooModels()) std::printf("%s\n", m.name.c_str());
      return 0;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else {
      model_name = argv[i];
    }
  }

  Graph g;
  if (model_name.size() > 5 &&
      model_name.substr(model_name.size() - 5) == ".lcem") {
    const Status s = LoadModel(model_name, &g);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", model_name.c_str(),
                   s.message().c_str());
      return 1;
    }
    std::printf("Profiling %s (from disk), %d thread(s)...\n",
                model_name.c_str(), threads);
  } else {
    const ZooModel* model = nullptr;
    for (const auto& m : AllZooModels()) {
      if (m.name == model_name) model = &m;
    }
    if (model == nullptr) {
      std::fprintf(stderr, "unknown model '%s' (use --list)\n",
                   model_name.c_str());
      return 1;
    }
    std::printf("Profiling %s at 224x224, %d thread(s)...\n",
                model->name.c_str(), threads);
    g = model->build(224);
    LCE_CHECK(Convert(g).ok());
  }
  const ModelStats stats = ComputeModelStats(g);

  CompileOptions opts;
  opts.num_threads = threads;
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(g, opts, &model).ok());
  ExecutionOptions exec_opts;
  exec_opts.enable_profiling = true;
  ExecutionContext exec(model, exec_opts);
  Rng rng(1);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }

  const auto prof = profiling::ProfileModel(exec, 5);
  const double total = profiling::TotalSeconds(prof);

  std::printf("\nTotal: %.1f ms | %.1f M binary MACs, %.1f M float MACs | "
              "model %.2f MiB | arena %.2f MiB\n",
              total * 1e3, stats.binary_macs / 1e6, stats.float_macs / 1e6,
              stats.model_bytes / (1024.0 * 1024.0),
              exec.arena_bytes() / (1024.0 * 1024.0));

  std::printf("\n--- Operator breakdown (Table 4 style) ---\n");
  for (const auto& row : profiling::OperatorBreakdown(prof)) {
    std::printf("%-38s %9.2f ms %7.2f%%\n", row.category.c_str(),
                row.seconds * 1e3, row.percent);
  }

  std::printf("\n--- 15 costliest ops ---\n");
  auto sorted = prof;
  std::sort(sorted.begin(), sorted.end(),
            [](const OpProfile& a, const OpProfile& b) {
              return a.seconds > b.seconds;
            });
  for (std::size_t i = 0; i < sorted.size() && i < 15; ++i) {
    const auto& op = sorted[i];
    std::printf("%-28s %-16s %8.2f ms %6.2f%%  %s\n", op.name.c_str(),
                std::string(OpTypeName(op.type)).c_str(), op.seconds * 1e3,
                100.0 * op.seconds / total,
                op.is_binary_op ? "[binary]" : "");
  }
  return 0;
}
