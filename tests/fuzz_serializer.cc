// Structure-aware mutational fuzzer for the untrusted-model path.
//
// Corpus: every zoo model (converted to the inference dialect at small input
// resolution), one training-dialect graph and one post-training-quantized
// graph, serialized to LCEM bytes. Each iteration picks a corpus entry and a
// mutation -- truncation, single/multi bit flips, byte overwrites, splicing
// two models together, header-targeted edits, appended garbage -- then runs
// the full untrusted pipeline: DeserializeGraph -> CompiledModel::Compile
// -> (periodically) ExecutionContext::Invoke, under strict ResourceLimits.
//
// Success criterion: the process exits 0. Any crash, abort, sanitizer
// report, or unbounded allocation is a bug in the trust boundary. This is
// the executable acceptance test for docs/ROBUSTNESS.md; CI runs it with
// ASan+UBSan enabled.
//
// Usage: lce_fuzz [--iterations=N] [--seed=S] [--hw=H] [--invoke_every=K]
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "converter/serializer.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace lce {
namespace {

// Deterministic 64-bit PRNG (splitmix64): reproducible from --seed alone.
struct FuzzRng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return n != 0 ? Next() % n : 0; }
};

// A small float training graph for the PTQ corpus entry.
Graph FloatModel() {
  Graph g;
  ModelBuilder b(g, 7);
  int x = b.Input(8, 8, 3);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 4);
  g.MarkOutput(x);
  return g;
}

struct CorpusEntry {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::vector<CorpusEntry> BuildCorpus(int hw) {
  std::vector<CorpusEntry> corpus;
  for (const ZooModel& m : AllZooModels()) {
    Graph g = m.build(hw);
    const Status c = Convert(g);
    if (!c.ok()) {
      std::fprintf(stderr, "corpus: converting %s failed: %s\n",
                   m.name.c_str(), c.message().c_str());
      continue;
    }
    corpus.push_back({m.name, SerializeGraph(g)});
  }
  {
    // Training dialect (emulated binarization, separate batch norms).
    Graph g;
    ModelBuilder b(g, 31);
    int x = b.Input(hw, hw, 3);
    x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
    x = b.BatchNorm(x);
    x = b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
    x = b.BatchNorm(x);
    x = b.GlobalAvgPool(x);
    x = b.Dense(x, 10);
    g.MarkOutput(x);
    corpus.push_back({"training_dialect", SerializeGraph(g)});
  }
  {
    Graph g = FloatModel();
    if (QuantizeModelInt8(g).ok()) {
      corpus.push_back({"ptq_int8", SerializeGraph(g)});
    }
  }
  return corpus;
}

std::vector<std::uint8_t> Mutate(const std::vector<CorpusEntry>& corpus,
                                 FuzzRng& rng) {
  const CorpusEntry& base = corpus[rng.Below(corpus.size())];
  std::vector<std::uint8_t> m = base.bytes;
  switch (rng.Below(7)) {
    case 0:  // truncate anywhere (including to zero bytes)
      m.resize(rng.Below(m.size() + 1));
      break;
    case 1:  // single bit flip
      if (!m.empty()) m[rng.Below(m.size())] ^= 1u << rng.Below(8);
      break;
    case 2: {  // burst of bit flips
      const int flips = 1 + static_cast<int>(rng.Below(64));
      for (int i = 0; i < flips && !m.empty(); ++i) {
        m[rng.Below(m.size())] ^= 1u << rng.Below(8);
      }
      break;
    }
    case 3: {  // overwrite a run with one byte (hits counts, dims, enums)
      if (m.empty()) break;
      const std::size_t at = rng.Below(m.size());
      const std::size_t len = 1 + rng.Below(16);
      const auto fill = static_cast<std::uint8_t>(rng.Next());
      for (std::size_t i = at; i < m.size() && i < at + len; ++i) m[i] = fill;
      break;
    }
    case 4: {  // splice: head of this model + tail of another
      const CorpusEntry& other = corpus[rng.Below(corpus.size())];
      const std::size_t head = rng.Below(m.size() + 1);
      const std::size_t tail = rng.Below(other.bytes.size() + 1);
      m.resize(head);
      m.insert(m.end(), other.bytes.end() - tail, other.bytes.end());
      break;
    }
    case 5: {  // header-targeted: corrupt the first 32 bytes (magic,
               // version, counts) where structure decisions concentrate
      if (m.empty()) break;
      const std::size_t at = rng.Below(std::min<std::size_t>(m.size(), 32));
      m[at] = static_cast<std::uint8_t>(rng.Next());
      break;
    }
    default:  // append garbage (trailing bytes must be rejected)
      for (int i = 0; i < 8; ++i) {
        m.push_back(static_cast<std::uint8_t>(rng.Next()));
      }
      break;
  }
  return m;
}

int Run(std::uint64_t iterations, std::uint64_t seed, int hw,
        std::uint64_t invoke_every) {
  const std::vector<CorpusEntry> corpus = BuildCorpus(hw);
  if (corpus.empty()) {
    std::fprintf(stderr, "no corpus models built\n");
    return 1;
  }
  std::fprintf(stderr, "corpus: %zu models at %dx%d input\n", corpus.size(),
               hw, hw);

  // Strict limits: a mutation that inflates dimensions or counts must be
  // rejected as kResourceExhausted long before any large allocation.
  ResourceLimits limits;
  limits.max_tensor_elements = std::int64_t{1} << 22;
  limits.max_tensor_bytes = std::size_t{64} << 20;
  limits.max_model_bytes = std::size_t{256} << 20;
  limits.max_arena_bytes = std::size_t{256} << 20;
  limits.max_im2col_bytes = std::size_t{64} << 20;
  limits.max_nodes = 1 << 12;
  limits.max_values = 1 << 13;
  limits.max_node_inputs = 256;

  FuzzRng rng{seed};
  std::uint64_t loaded_ok = 0, compiled_ok = 0, invoked = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::vector<std::uint8_t> bytes = Mutate(corpus, rng);
    Graph g;
    const Status s = DeserializeGraph(bytes.data(), bytes.size(), &g, limits);
    if (!s.ok()) continue;
    ++loaded_ok;
    CompileOptions opts;
    opts.limits = limits;
    std::shared_ptr<const CompiledModel> model;
    if (!CompiledModel::Compile(g, opts, &model).ok()) continue;
    ++compiled_ok;
    ExecutionContext exec(model);
    // Invoke is the expensive stage; run it on a subsample. After an OK
    // Compile it must be crash-free by contract.
    if (invoke_every != 0 && compiled_ok % invoke_every == 0) {
      for (int t = 0; t < exec.num_inputs(); ++t) {
        Tensor in = exec.input(t);
        if (in.dtype() != DataType::kFloat32) continue;
        float* p = in.data<float>();
        for (std::int64_t j = 0; j < in.num_elements(); ++j) {
          p[j] = static_cast<float>(static_cast<std::int32_t>(rng.Next())) *
                 1e-9f;
        }
      }
      exec.Invoke();
      ++invoked;
    }
    if ((i + 1) % 10000 == 0) {
      std::fprintf(stderr,
                   "iter %" PRIu64 ": %" PRIu64 " loaded, %" PRIu64
                   " compiled, %" PRIu64 " invoked\n",
                   i + 1, loaded_ok, compiled_ok, invoked);
    }
  }
  std::fprintf(stderr,
               "done: %" PRIu64 " iterations, %" PRIu64 " loaded, %" PRIu64
               " compiled, %" PRIu64 " invoked, 0 crashes\n",
               iterations, loaded_ok, compiled_ok, invoked);
  return 0;
}

}  // namespace
}  // namespace lce

int main(int argc, char** argv) {
  std::uint64_t iterations = 50000;
  std::uint64_t seed = 20260806;
  std::uint64_t invoke_every = 50;
  int hw = 32;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--iterations=", 13) == 0) {
      iterations = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--hw=", 5) == 0) {
      hw = static_cast<int>(std::strtol(arg + 5, nullptr, 10));
    } else if (std::strncmp(arg, "--invoke_every=", 15) == 0) {
      invoke_every = std::strtoull(arg + 15, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--iterations=N] [--seed=S] [--hw=H] "
                   "[--invoke_every=K]\n",
                   argv[0]);
      return 2;
    }
  }
  return lce::Run(iterations, seed, hw, invoke_every);
}
