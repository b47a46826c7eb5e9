#include "bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "core/bitpack.h"
#include "telemetry/json.h"

namespace lce::bench {
namespace {

// Splits a comma-separated CSV line into cells (the benches never emit
// quoted or escaped commas).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

struct FloatConvState {
  Tensor input;
  Tensor output;
  std::unique_ptr<Conv2DFloat> op;
};

struct Int8ConvState {
  Tensor input;
  Tensor output;
  std::unique_ptr<Conv2DInt8> op;
};

struct BinaryConvState {
  Tensor input;
  Tensor output;
  std::unique_ptr<BConv2D> op;
};

Conv2DGeometry Geo(const ConvDims& d) {
  Conv2DGeometry g;
  g.in_h = g.in_w = d.hw;
  g.in_c = g.out_c = d.channels;
  g.filter_h = g.filter_w = d.kernel;
  g.stride_h = g.stride_w = d.stride;
  g.padding = Padding::kSameZero;
  return g;
}

}  // namespace

ConvBench MakeFloatConv(const ConvDims& d, gemm::Context& ctx) {
  auto state = std::make_shared<FloatConvState>();
  const Conv2DGeometry g = Geo(d);
  Rng rng(d.hw * 101 + d.channels);
  state->input = Tensor(DataType::kFloat32, Shape{1, d.hw, d.hw, d.channels});
  FillUniform(state->input, rng);
  std::vector<float> weights(static_cast<std::size_t>(d.channels) * d.kernel *
                             d.kernel * d.channels);
  for (auto& v : weights) v = rng.Uniform(-0.1f, 0.1f);
  Conv2DFloatAttrs attrs;
  attrs.geo = g;
  state->op = std::make_unique<Conv2DFloat>(weights.data(), attrs);
  state->output =
      Tensor(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), d.channels});

  ConvBench b;
  b.name = "float32";
  b.macs = d.macs();
  b.run = [state_ptr = state.get(), &ctx] {
    state_ptr->op->Run(state_ptr->input, state_ptr->output, ctx);
  };
  b.state = state;
  return b;
}

ConvBench MakeInt8Conv(const ConvDims& d, gemm::Context& ctx) {
  auto state = std::make_shared<Int8ConvState>();
  const Conv2DGeometry g = Geo(d);
  Rng rng(d.hw * 131 + d.channels);
  state->input = Tensor(DataType::kInt8, Shape{1, d.hw, d.hw, d.channels});
  FillInt8(state->input, rng);
  std::vector<std::int8_t> weights(static_cast<std::size_t>(d.channels) *
                                   d.kernel * d.kernel * d.channels);
  for (auto& v : weights) v = rng.Int8(-127, 127);
  Conv2DInt8Attrs attrs;
  attrs.geo = g;
  attrs.input_quant = {0.05f, 0};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.2f, 0};
  state->op = std::make_unique<Conv2DInt8>(weights.data(), attrs);
  state->output =
      Tensor(DataType::kInt8, Shape{1, g.out_h(), g.out_w(), d.channels});

  ConvBench b;
  b.name = "int8";
  b.macs = d.macs();
  b.run = [state_ptr = state.get(), &ctx] {
    state_ptr->op->Run(state_ptr->input, state_ptr->output, ctx);
  };
  b.state = state;
  return b;
}

ConvBench MakeBinaryConv(const ConvDims& d, gemm::Context& ctx) {
  auto state = std::make_shared<BinaryConvState>();
  Conv2DGeometry g = Geo(d);
  g.padding = Padding::kSameOne;  // the fast binary padding mode
  Rng rng(d.hw * 151 + d.channels);
  Tensor input_f(DataType::kFloat32, Shape{1, d.hw, d.hw, d.channels});
  FillSigns(input_f, rng);
  state->input = Tensor(DataType::kBitpacked, input_f.shape());
  BitpackTensor(input_f, state->input);
  std::vector<float> weights(static_cast<std::size_t>(d.channels) * d.kernel *
                             d.kernel * d.channels);
  for (auto& v : weights) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  // Realistic fused transform (batch-norm multiplier and bias).
  attrs.multiplier.assign(d.channels, 0.02f);
  attrs.bias.assign(d.channels, 0.1f);
  state->op = std::make_unique<BConv2D>(weights.data(), attrs);
  state->output =
      Tensor(DataType::kFloat32, Shape{1, g.out_h(), g.out_w(), d.channels});

  ConvBench b;
  b.name = "binary";
  b.macs = d.macs();
  b.run = [state_ptr = state.get(), &ctx] {
    state_ptr->op->Run(state_ptr->input, state_ptr->output, ctx);
  };
  b.state = state;
  return b;
}

std::vector<SweepRow> RunConvSweep(gemm::Context& ctx, std::int64_t max_macs) {
  std::vector<SweepRow> rows;
  for (int hw : {8, 16, 32, 64}) {
    for (int ch : {32, 64, 96, 128, 160, 256}) {
      for (int k : {3, 5}) {
        ConvDims d{hw, ch, k};
        if (d.macs() > max_macs) continue;
        SweepRow row;
        row.dims = d;
        {
          ConvBench f = MakeFloatConv(d, ctx);
          row.float_ms = 1e3 * profiling::MeasureMedianSeconds(
                                   f.run, /*warmup=*/1, /*min_reps=*/2,
                                   /*max_reps=*/5, /*min_seconds=*/0.01);
        }
        {
          ConvBench q = MakeInt8Conv(d, ctx);
          row.int8_ms = 1e3 * profiling::MeasureMedianSeconds(
                                  q.run, 1, 2, 5, 0.01);
        }
        {
          ConvBench b = MakeBinaryConv(d, ctx);
          row.binary_ms = 1e3 * profiling::MeasureMedianSeconds(
                                    b.run, 1, 3, 20, 0.01);
        }
        rows.push_back(row);
      }
    }
  }
  return rows;
}

std::unique_ptr<ExecutionContext> PrepareContext(const Graph& graph,
                                                 CompileOptions options,
                                                 ExecutionOptions exec_options,
                                                 std::uint64_t seed) {
  std::shared_ptr<const CompiledModel> model;
  const Status compiled =
      CompiledModel::Compile(graph, std::move(options), &model);
  LCE_CHECK(compiled.ok());
  auto exec =
      std::make_unique<ExecutionContext>(model, std::move(exec_options));
  Rng rng(seed);
  Tensor in = exec->input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  return exec;
}

std::unique_ptr<ExecutionContext> PrepareConverted(
    Graph& graph_storage, const std::function<Graph(int)>& build, int hw,
    gemm::KernelProfile profile, bool profiling) {
  graph_storage = build(hw);
  const Status converted = Convert(graph_storage);
  LCE_CHECK(converted.ok());
  CompileOptions options;
  options.kernel_profile = profile;
  ExecutionOptions exec_options;
  exec_options.enable_profiling = profiling;
  return PrepareContext(graph_storage, std::move(options),
                        std::move(exec_options));
}

CsvWriter::CsvWriter(const std::string& name, const std::string& header)
    : name_(name) {
  std::filesystem::create_directories("results");
  path_ = "results/" + name + ".csv";
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ != nullptr) {
    std::fprintf(file_, "%s\n", header.c_str());
  }
  mirror_json_ = std::getenv("LCE_BENCH_JSON") != nullptr;
  if (mirror_json_) header_ = SplitCsv(header);
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::printf("[csv] wrote %s\n", path_.c_str());
  }
  if (!mirror_json_) return;
  const std::string json_path = "results/" + name_ + ".json";
  std::FILE* jf = std::fopen(json_path.c_str(), "w");
  if (jf == nullptr) return;
  std::string out = "{\"name\": \"" + telemetry::JsonEscape(name_) +
                    "\", \"columns\": [";
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + telemetry::JsonEscape(header_[i]) + "\"";
  }
  out += "], \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r > 0 ? ",\n  [" : "\n  [";
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c > 0) out += ", ";
      out += "\"" + telemetry::JsonEscape(rows_[r][c]) + "\"";
    }
    out += "]";
  }
  out += "\n]}\n";
  std::fwrite(out.data(), 1, out.size(), jf);
  std::fclose(jf);
  std::printf("[json] wrote %s\n", json_path.c_str());
}

void CsvWriter::Row(const std::string& row) {
  if (file_ != nullptr) std::fprintf(file_, "%s\n", row.c_str());
  if (mirror_json_) rows_.push_back(SplitCsv(row));
}

double ModelLatency(ExecutionContext& exec, int reps) {
  return profiling::MeasureMedianSeconds([&] { exec.Invoke(); },
                                         /*warmup=*/1, /*min_reps=*/reps,
                                         /*max_reps=*/reps, /*min_seconds=*/0);
}

}  // namespace lce::bench
