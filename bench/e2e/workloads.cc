// Workload table, model generation, seeded inputs and the bit-exact
// reference (README.md, "Workloads" and "Correctness oracle").
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "e2e.h"
#include "graph/shape_variant.h"
#include "models/zoo.h"

namespace lce::e2e {
namespace {

Graph BuildQuickNetLarge() {
  Graph g = BuildQuickNet(QuickNetLargeConfig(), 224);
  LCE_CHECK(Convert(g).ok());
  return g;
}

Graph BuildDenseNet28() {
  Graph g = BuildBinaryDenseNet28(224);
  LCE_CHECK(Convert(g).ok());
  return g;
}

// Post-training quantization runs here, at generation time, so its
// calibration passes never count towards the timed process's set-up.
Graph BuildInt8ResNet18() {
  Graph g = BuildFloatResNet18(160);
  LCE_CHECK(QuantizeModelInt8(g).ok());
  return g;
}

Graph BuildQuickNetSmall() {
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 224);
  LCE_CHECK(Convert(g).ok());
  return g;
}

constexpr char kRefMagic[8] = {'L', 'C', 'E', 'E', '2', 'E', 'R', '1'};

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool Get(const std::string& in, std::size_t* pos, T* v) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> v;
    {
      Workload w;
      w.name = "quicknet_l_1t";
      w.pattern = LoadPattern::kClosed;
      w.intra_op_threads = 1;
      w.resolutions = {224};
      w.build = &BuildQuickNetLarge;
      v.push_back(w);
    }
    {
      Workload w;
      w.name = "densenet28_2t";
      w.pattern = LoadPattern::kClosed;
      // Two threads leave two CPUs spare. With a thread on every CPU, one
      // CPU slowed by another tenant held up every ParallelFor, and 10-run
      // spreads of latency_p50_ms reached 0.25 (README.md, "Run-to-run
      // spread and the bounds").
      w.intra_op_threads = 2;
      w.resolutions = {224};
      w.build = &BuildDenseNet28;
      v.push_back(w);
    }
    {
      Workload w;
      w.name = "int8_rn18_1t";
      w.pattern = LoadPattern::kClosed;
      w.intra_op_threads = 1;
      w.resolutions = {160};
      w.build = &BuildInt8ResNet18;
      v.push_back(w);
    }
    {
      Workload w;
      w.name = "multires_ladder";
      w.pattern = LoadPattern::kLadder;
      w.intra_op_threads = 1;
      w.resolutions = {224, 96, 160, 320};
      // The root resolution carries 40% of the traffic. With an even mix
      // the median would fall in the gap between the 160 and 224 px
      // latency modes and jump between them from run to run.
      w.mix = {96, 160, 224, 224, 320};
      w.deadline_ms = 250.0;
      w.clients = {1, 2, 4, 8};
      w.reference_clients = 2;
      w.slo_p95_ms = 80.0;
      w.build = &BuildQuickNetSmall;
      v.push_back(w);
    }
    return v;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

serving::ServerOptions ServingOptions(const Workload& w) {
  serving::ServerOptions o;
  o.max_inflight = 2;
  o.max_queue_depth = 64;
  o.max_batch_size = 4;
  o.batch_timeout = std::chrono::nanoseconds{0};
  o.input_resolutions = w.resolutions;
  o.lazy_shape_compile = false;
  return o;
}

std::vector<std::vector<float>> MakeInputs(std::uint64_t seed, int hw,
                                           int channels) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(hw));
  std::vector<std::vector<float>> inputs(kInputsPerResolution);
  for (auto& x : inputs) {
    x.resize(static_cast<std::size_t>(hw) * hw * channels);
    for (float& v : x) v = rng.Uniform();
  }
  return inputs;
}

int EmitReference(const Workload& w, std::uint64_t seed,
                  const std::string& dir) {
  const Graph built = w.build();
  const std::vector<std::uint8_t> bytes = SerializeGraph(built);
  if (bytes.empty()) {
    std::fprintf(stderr, "serialization of %s failed\n", w.name.c_str());
    return 1;
  }
  {
    std::ofstream out(dir + "/model.lcem", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write %s/model.lcem\n", dir.c_str());
      return 1;
    }
  }
  // The oracle compiles the same serialized bytes the timed process loads.
  Graph model;
  const Status st = DeserializeGraph(bytes.data(), bytes.size(), &model);
  if (!st.ok()) {
    std::fprintf(stderr, "deserialize: %s\n", st.message().c_str());
    return 1;
  }
  const int channels =
      static_cast<int>(model.value(model.input_ids()[0]).shape.dim(3));

  std::string blob(kRefMagic, sizeof(kRefMagic));
  Put<std::uint64_t>(&blob, seed);
  Put<std::uint32_t>(&blob, static_cast<std::uint32_t>(w.resolutions.size()));
  for (const int hw : w.resolutions) {
    // A fresh single-resolution graph and compile -- never a shape bucket,
    // so the bucketed serving path is checked against an independent plan.
    std::unique_ptr<Graph> clone;
    const Graph* g = &model;
    if (hw != w.resolutions.front()) {
      const Status cs = CloneGraphWithInputSize(model, hw, &clone);
      if (!cs.ok()) {
        std::fprintf(stderr, "clone @%d: %s\n", hw, cs.message().c_str());
        return 1;
      }
      g = clone.get();
    }
    CompileOptions copts;
    copts.num_threads = 1;
    copts.kernel_profile = gemm::KernelProfile::kScalar;
    std::shared_ptr<const CompiledModel> compiled;
    const Status cs = CompiledModel::Compile(*g, copts, &compiled);
    if (!cs.ok()) {
      std::fprintf(stderr, "compile @%d: %s\n", hw, cs.message().c_str());
      return 1;
    }
    const auto inputs = MakeInputs(seed, hw, channels);
    std::vector<std::vector<std::uint8_t>> outputs(inputs.size());
    // Scalar inference is slow; split the inputs over four callers, each
    // with its own context on the shared single-thread (inline) pool.
    constexpr int kWorkers = 4;
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
      workers.emplace_back([&, t] {
        ExecutionContext ctx(compiled);
        for (std::size_t i = t; i < inputs.size(); i += kWorkers) {
          WriteInput(ctx, inputs[i]);
          ctx.Invoke();
          const Tensor out = ctx.output(0);
          const auto* p = static_cast<const std::uint8_t*>(out.raw_data());
          outputs[i].assign(p, p + out.byte_size());
          ctx.Reset();
        }
      });
    }
    for (auto& th : workers) th.join();
    Put<std::uint32_t>(&blob, static_cast<std::uint32_t>(hw));
    Put<std::uint32_t>(&blob, static_cast<std::uint32_t>(outputs.size()));
    Put<std::uint64_t>(&blob, outputs.front().size());
    for (const auto& o : outputs) {
      blob.append(reinterpret_cast<const char*>(o.data()), o.size());
    }
  }
  std::ofstream out(dir + "/reference.bin", std::ios::binary);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s/reference.bin\n", dir.c_str());
    return 1;
  }
  return 0;
}

Status LoadReference(const Workload& w, std::uint64_t seed, int channels,
                     const std::string& dir, Reference* ref) {
  bool ok = false;
  const std::string blob = ReadFile(dir + "/reference.bin", &ok);
  if (!ok) return Status::NotFound("no reference at " + dir + "/reference.bin");
  std::size_t pos = sizeof(kRefMagic);
  std::uint64_t file_seed = 0;
  std::uint32_t n_res = 0;
  if (blob.size() < pos || std::memcmp(blob.data(), kRefMagic, pos) != 0 ||
      !Get(blob, &pos, &file_seed) || !Get(blob, &pos, &n_res)) {
    return Status::DataLoss("malformed reference file");
  }
  if (file_seed != seed || n_res != w.resolutions.size()) {
    return Status::InvalidArgument("reference was made for another seed");
  }
  for (std::uint32_t r = 0; r < n_res; ++r) {
    std::uint32_t hw = 0, n = 0;
    std::uint64_t size = 0;
    if (!Get(blob, &pos, &hw) || !Get(blob, &pos, &n) || !Get(blob, &pos, &size) ||
        n != kInputsPerResolution || blob.size() - pos < n * size) {
      return Status::DataLoss("truncated reference file");
    }
    auto& outs = ref->outputs[static_cast<int>(hw)];
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(blob.data() + pos);
      outs.emplace_back(p, p + size);
      pos += size;
    }
    ref->inputs[static_cast<int>(hw)] =
        MakeInputs(seed, static_cast<int>(hw), channels);
  }
  return Status::Ok();
}

// ---- Op classes and per-model work ------------------------------------------

const char* OpClassName(int c) {
  static const char* const kNames[kNumOpClasses] = {
      "bconv2d", "conv2d", "conv2d_int8", "quantize",
      "elementwise", "pool", "fc", "other"};
  return kNames[c];
}

OpClass ClassifyOp(OpType t) {
  switch (t) {
    case OpType::kLceBConv2d:
      return kOpBConv2d;
    case OpType::kConv2D:
    case OpType::kDepthwiseConv2D:
      return kOpConv2d;
    case OpType::kConv2DInt8:
      return kOpConv2dInt8;
    case OpType::kLceQuantize:
    case OpType::kLceDequantize:
    case OpType::kQuantizeInt8:
    case OpType::kDequantizeInt8:
      return kOpQuantize;
    case OpType::kFakeSign:
    case OpType::kBatchNorm:
    case OpType::kRelu:
    case OpType::kPRelu:
    case OpType::kAdd:
    case OpType::kMulChannel:
      return kOpElementwise;
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
    case OpType::kGlobalAvgPool:
    case OpType::kLceBMaxPool2d:
      return kOpPool;
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected:
      return kOpFc;
    default:
      return kOpOther;
  }
}

ModelWork ComputeWork(const Graph& g) {
  ModelWork w;
  const auto bytes = [&g](int value_id) {
    const Value& v = g.value(value_id);
    return v.is_constant ? 0.0
                         : static_cast<double>(Tensor::ByteSize(v.dtype, v.shape));
  };
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    const Conv2DGeometry& c = n->attrs.conv;
    double macs = 0.0;
    switch (n->type) {
      case OpType::kLceBConv2d:
      case OpType::kConv2D:
      case OpType::kConv2DInt8:
        macs = static_cast<double>(c.macs());
        break;
      case OpType::kDepthwiseConv2D:
        macs = static_cast<double>(c.batch) * c.out_h() * c.out_w() *
               c.filter_h * c.filter_w * c.in_c;
        break;
      case OpType::kFullyConnected:
      case OpType::kLceBFullyConnected:
        macs = static_cast<double>(n->attrs.fc_in_features) *
               n->attrs.fc_out_features;
        break;
      default:
        break;
    }
    w.macs[ClassifyOp(n->type)] += macs;
    for (const int v : n->inputs) w.activation_bytes += bytes(v);
    for (const int v : n->outputs) w.activation_bytes += bytes(v);
  }
  return w;
}

void ProfileAccumulator::Add(const ExecutionContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = work_.find(&ctx.model());
  if (it == work_.end()) {
    it = work_.emplace(&ctx.model(), ComputeWork(ctx.model().graph())).first;
  }
  for (const OpProfile& p : ctx.profile()) {
    seconds[ClassifyOp(p.type)] += p.seconds;
    if (p.type == OpType::kLceBConv2d) {
      bconv_im2col_s += p.bconv.im2col;
      bconv_gemm_s += p.bconv.gemm;
      bconv_transform_s += p.bconv.transform;
    }
  }
  for (int c = 0; c < kNumOpClasses; ++c) macs[c] += it->second.macs[c];
  activation_bytes += it->second.activation_bytes;
}

}  // namespace lce::e2e
