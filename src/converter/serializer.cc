#include "converter/serializer.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>

#include "core/macros.h"
#include "graph/validator.h"
#include "kernels/bconv2d.h"

namespace lce {
namespace {

constexpr char kMagic[4] = {'L', 'C', 'E', 'M'};
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Floats(const std::vector<float>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    Raw(v.data(), v.size() * sizeof(float));
  }
  void Raw(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null for empty payloads
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t* v) { return Raw(v, 1); }
  bool U32(std::uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(std::int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(std::int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    std::uint32_t n;
    if (!U32(&n) || n > Remaining()) return false;
    if (n == 0) {
      s->clear();
      return true;
    }
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool Floats(std::vector<float>* v) {
    std::uint32_t n;
    if (!U32(&n)) return false;
    if (static_cast<std::size_t>(n) * sizeof(float) > Remaining()) return false;
    v->resize(n);
    return Raw(v->data(), n * sizeof(float));
  }
  bool Raw(void* p, std::size_t n) {
    if (n > Remaining()) return false;
    // An empty read may come with a null destination (e.g. a zero-length
    // vector's data()); memcpy's arguments are declared nonnull.
    if (n != 0) {
      std::memcpy(p, data_ + pos_, n);
      pos_ += n;
    }
    return true;
  }
  std::size_t Remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void WriteAttrs(Writer& w, const OpAttrs& a) {
  // Conv geometry (batch/in dims are re-resolved at load from shapes, but we
  // store the full struct for simplicity and robustness).
  w.I32(a.conv.batch); w.I32(a.conv.in_h); w.I32(a.conv.in_w); w.I32(a.conv.in_c);
  w.I32(a.conv.filter_h); w.I32(a.conv.filter_w); w.I32(a.conv.out_c);
  w.I32(a.conv.stride_h); w.I32(a.conv.stride_w);
  w.U8(static_cast<std::uint8_t>(a.conv.padding));
  w.I32(a.pool.batch); w.I32(a.pool.in_h); w.I32(a.pool.in_w); w.I32(a.pool.channels);
  w.I32(a.pool.filter_h); w.I32(a.pool.filter_w);
  w.I32(a.pool.stride_h); w.I32(a.pool.stride_w);
  w.U8(static_cast<std::uint8_t>(a.pool.padding));
  w.U8(static_cast<std::uint8_t>(a.activation));
  w.U8(a.binarize_weights ? 1 : 0);
  w.Floats(a.bn_scale);
  w.Floats(a.bn_offset);
  w.Floats(a.multiplier);
  w.Floats(a.bias);
  w.U8(static_cast<std::uint8_t>(a.pre_activation));
  w.U8(static_cast<std::uint8_t>(a.bconv_output));
  w.I32(a.fc_in_features);
  w.I32(a.fc_out_features);
  w.I32(a.slice_begin);
  w.I32(a.slice_count);
  w.F32(a.input_quant.scale);
  w.I32(a.input_quant.zero_point);
  w.F32(a.weight_quant.scale);
  w.I32(a.weight_quant.zero_point);
  w.F32(a.output_quant.scale);
  w.I32(a.output_quant.zero_point);
  w.U32(static_cast<std::uint32_t>(a.bias_int32.size()));
  w.Raw(a.bias_int32.data(), a.bias_int32.size() * sizeof(std::int32_t));
  w.Floats(a.weight_scales);
  w.Floats(a.prelu_slope);
}

Shape MakeShape(const std::int64_t* dims, int rank) {
  Shape s;
  switch (rank) {
    case 0: return Shape{};
    case 1: return Shape{dims[0]};
    case 2: return Shape{dims[0], dims[1]};
    case 3: return Shape{dims[0], dims[1], dims[2]};
    case 4: return Shape{dims[0], dims[1], dims[2], dims[3]};
    case 5: return Shape{dims[0], dims[1], dims[2], dims[3], dims[4]};
    default:
      return Shape{dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]};
  }
}

bool ReadAttrs(Reader& r, OpAttrs* a) {
  std::uint8_t pad, pool_pad, act, binw, pre_act, bout;
  bool ok = r.I32(&a->conv.batch) && r.I32(&a->conv.in_h) &&
            r.I32(&a->conv.in_w) && r.I32(&a->conv.in_c) &&
            r.I32(&a->conv.filter_h) && r.I32(&a->conv.filter_w) &&
            r.I32(&a->conv.out_c) && r.I32(&a->conv.stride_h) &&
            r.I32(&a->conv.stride_w) && r.U8(&pad) && r.I32(&a->pool.batch) &&
            r.I32(&a->pool.in_h) && r.I32(&a->pool.in_w) &&
            r.I32(&a->pool.channels) && r.I32(&a->pool.filter_h) &&
            r.I32(&a->pool.filter_w) && r.I32(&a->pool.stride_h) &&
            r.I32(&a->pool.stride_w) && r.U8(&pool_pad) && r.U8(&act) &&
            r.U8(&binw) && r.Floats(&a->bn_scale) && r.Floats(&a->bn_offset) &&
            r.Floats(&a->multiplier) && r.Floats(&a->bias) && r.U8(&pre_act) &&
            r.U8(&bout) && r.I32(&a->fc_in_features) &&
            r.I32(&a->fc_out_features) && r.I32(&a->slice_begin) &&
            r.I32(&a->slice_count) && r.F32(&a->input_quant.scale) &&
            r.I32(&a->input_quant.zero_point) &&
            r.F32(&a->weight_quant.scale) &&
            r.I32(&a->weight_quant.zero_point) &&
            r.F32(&a->output_quant.scale) &&
            r.I32(&a->output_quant.zero_point);
  if (!ok) return false;
  std::uint32_t n_bias_i32;
  if (!r.U32(&n_bias_i32)) return false;
  if (static_cast<std::size_t>(n_bias_i32) * sizeof(std::int32_t) >
      r.Remaining()) {
    return false;
  }
  a->bias_int32.resize(n_bias_i32);
  if (!r.Raw(a->bias_int32.data(), n_bias_i32 * sizeof(std::int32_t))) {
    return false;
  }
  if (!r.Floats(&a->weight_scales)) return false;
  if (!r.Floats(&a->prelu_slope)) return false;
  // Enum bytes are untrusted: reject out-of-range values here so no
  // malformed enum ever enters an OpAttrs (switches over these enums
  // downstream have no default case for garbage).
  if (!IsValidPadding(pad) || !IsValidPadding(pool_pad) ||
      !IsValidActivation(act) || !IsValidActivation(pre_act) ||
      !IsValidGraphBConvOutputType(bout)) {
    return false;
  }
  a->conv.padding = static_cast<Padding>(pad);
  a->pool.padding = static_cast<Padding>(pool_pad);
  a->activation = static_cast<Activation>(act);
  a->binarize_weights = binw != 0;
  a->pre_activation = static_cast<Activation>(pre_act);
  a->bconv_output = static_cast<BConvOutputType>(bout);
  return true;
}

}  // namespace

std::vector<std::uint8_t> SerializeGraph(const Graph& g) {
  Writer w;
  w.Raw(kMagic, 4);
  w.U32(kVersion);

  // Dense renumbering: producer-less values first (id order), then one value
  // per live node in topological order.
  std::map<int, std::uint32_t> remap;
  std::uint32_t next = 0;

  std::vector<const Value*> leading;
  for (const auto& v : g.values()) {
    if (v->producer >= 0 || !v->alive) continue;
    // Skip constants no longer referenced by live nodes.
    if (v->is_constant) {
      bool used = false;
      for (int c : v->consumers) used |= g.node(c).alive;
      if (!used) continue;
    }
    leading.push_back(v.get());
    remap[v->id] = next++;
  }
  const auto order = g.TopologicalOrder();
  for (int id : order) remap[g.node(id).outputs[0]] = next++;

  w.U32(static_cast<std::uint32_t>(leading.size()));
  for (const Value* v : leading) {
    w.U8(v->is_constant ? 1 : 0);
    w.Str(v->name);
    w.U8(static_cast<std::uint8_t>(v->dtype));
    w.U8(static_cast<std::uint8_t>(v->shape.rank()));
    for (int d = 0; d < v->shape.rank(); ++d) w.I64(v->shape.dim(d));
    if (v->is_constant) {
      const std::size_t bytes = v->constant_data.byte_size();
      w.I64(static_cast<std::int64_t>(bytes));
      w.Raw(v->constant_data.raw_data(), bytes);
    }
  }

  w.U32(static_cast<std::uint32_t>(order.size()));
  for (int id : order) {
    const Node& n = g.node(id);
    w.Str(n.name);
    w.U8(static_cast<std::uint8_t>(n.type));
    w.U32(static_cast<std::uint32_t>(n.inputs.size()));
    for (int in : n.inputs) {
      const auto it = remap.find(in);
      if (it == remap.end()) {
        // A live node referencing a value that is neither a leading value
        // nor an earlier node's output means the graph is structurally
        // inconsistent. Refuse to emit a corrupt file.
        return {};
      }
      w.U32(it->second);
    }
    WriteAttrs(w, n.attrs);
  }

  w.U32(static_cast<std::uint32_t>(g.input_ids().size()));
  for (int in : g.input_ids()) {
    const auto it = remap.find(in);
    if (it == remap.end()) return {};
    w.U32(it->second);
  }
  w.U32(static_cast<std::uint32_t>(g.output_ids().size()));
  for (int out : g.output_ids()) {
    const auto it = remap.find(out);
    if (it == remap.end()) return {};
    w.U32(it->second);
  }
  return w.Take();
}

Status DeserializeGraph(const std::uint8_t* data, std::size_t size, Graph* g,
                        const ResourceLimits& limits) {
  Reader r(data, size);
  char magic[4];
  std::uint32_t version;
  if (!r.Raw(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::DataLoss("bad magic");
  }
  if (!r.U32(&version) || version != kVersion) {
    return Status::DataLoss("unsupported version");
  }

  std::uint32_t num_leading;
  if (!r.U32(&num_leading)) return Status::DataLoss("truncated header");
  if (num_leading > limits.max_values) {
    return Status::ResourceExhausted("model declares too many values");
  }
  std::size_t model_bytes = 0;  // running total of constant storage
  std::vector<int> ids;         // dense id -> graph value id
  for (std::uint32_t i = 0; i < num_leading; ++i) {
    std::uint8_t kind, dtype_u8, rank;
    std::string name;
    if (!r.U8(&kind) || !r.Str(&name) || !r.U8(&dtype_u8) || !r.U8(&rank) ||
        rank > Shape::kMaxDims) {
      return Status::DataLoss("truncated value record");
    }
    if (kind > 1) return Status::DataLoss("bad value kind");
    if (!IsValidDType(dtype_u8)) return Status::DataLoss("unknown dtype");
    std::int64_t dims[Shape::kMaxDims] = {};
    for (int d = 0; d < rank; ++d) {
      if (!r.I64(&dims[d])) return Status::DataLoss("truncated shape");
      // Reject absurd dimensions before any allocation happens: corrupt
      // files must produce errors, not gigabyte allocations.
      if (dims[d] <= 0 || dims[d] > (1 << 24)) {
        return Status::DataLoss("implausible tensor dimension");
      }
    }
    Shape shape = MakeShape(dims, rank);
    const auto dtype = static_cast<DataType>(dtype_u8);
    std::int64_t elements = 0;
    std::size_t expected = 0;
    if (!shape.checked_num_elements(&elements) ||
        !Tensor::CheckedByteSize(dtype, shape, &expected)) {
      return Status::DataLoss("implausible tensor size");
    }
    if (elements > limits.max_tensor_elements ||
        expected > limits.max_tensor_bytes) {
      return Status::ResourceExhausted("tensor exceeds the resource limit");
    }
    if (kind == 1) {
      std::int64_t bytes;
      if (!r.I64(&bytes)) return Status::DataLoss("truncated constant");
      // Validate against both the declared shape and the remaining stream
      // *before* allocating storage.
      if (bytes < 0 || static_cast<std::size_t>(bytes) != expected ||
          expected > r.Remaining()) {
        return Status::DataLoss("constant size mismatch");
      }
      if (__builtin_add_overflow(model_bytes, expected, &model_bytes) ||
          model_bytes > limits.max_model_bytes) {
        return Status::ResourceExhausted(
            "model constants exceed the resource limit");
      }
      Tensor t(dtype, shape);
      if (!r.Raw(t.raw_data(), t.byte_size())) {
        return Status::DataLoss("truncated constant data");
      }
      ids.push_back(g->AddConstant(name, std::move(t)));
    } else {
      ids.push_back(g->AddInput(name, dtype, shape));
    }
  }

  std::uint32_t num_nodes;
  if (!r.U32(&num_nodes)) return Status::DataLoss("truncated node count");
  if (num_nodes > limits.max_nodes) {
    return Status::ResourceExhausted("model declares too many nodes");
  }
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    std::string name;
    std::uint8_t type_u8;
    std::uint32_t n_inputs;
    if (!r.Str(&name) || !r.U8(&type_u8) || !r.U32(&n_inputs)) {
      return Status::DataLoss("truncated node record");
    }
    // Reject a bad op byte before trusting anything else in the record.
    if (!IsValidOpType(type_u8)) return Status::DataLoss("unknown op type");
    if (n_inputs > limits.max_node_inputs) {
      return Status::ResourceExhausted("node declares too many inputs");
    }
    std::vector<int> inputs;
    for (std::uint32_t j = 0; j < n_inputs; ++j) {
      std::uint32_t id;
      if (!r.U32(&id)) return Status::DataLoss("truncated node inputs");
      if (id >= ids.size()) return Status::DataLoss("forward value reference");
      inputs.push_back(ids[id]);
    }
    OpAttrs attrs;
    if (!ReadAttrs(r, &attrs)) {
      return Status::DataLoss("truncated or malformed attrs");
    }
    int out = -1;
    const Status added =
        g->TryAddNode(static_cast<OpType>(type_u8), name, std::move(inputs),
                      std::move(attrs), &out);
    if (!added.ok()) {
      // The record decoded; the node breaks its op's contract.
      return Status::InvalidArgument("invalid node in model: " +
                                     added.message());
    }
    ids.push_back(out);
  }

  std::uint32_t n_in, n_out;
  if (!r.U32(&n_in)) return Status::DataLoss("truncated io");
  for (std::uint32_t i = 0; i < n_in; ++i) {
    std::uint32_t id;
    if (!r.U32(&id) || id >= ids.size()) {
      return Status::DataLoss("bad input id");
    }
    // Inputs were registered by AddInput already; nothing further needed.
  }
  if (!r.U32(&n_out)) return Status::DataLoss("truncated io");
  for (std::uint32_t i = 0; i < n_out; ++i) {
    std::uint32_t id;
    if (!r.U32(&id) || id >= ids.size()) return Status::DataLoss("bad output id");
    g->MarkOutput(ids[id]);
  }
  if (r.Remaining() != 0) {
    return Status::DataLoss("trailing bytes after model");
  }
  // Full semantic + resource validation: a graph that parses is not yet a
  // graph that is safe to Compile/Invoke.
  return ValidateGraph(*g, limits);
}

Status SaveModel(const Graph& g, const std::string& path) {
  const auto bytes = SerializeGraph(g);
  if (bytes.empty()) {
    return Status::InvalidArgument("graph is not serializable");
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    return Status::NotFound("cannot open " + path + " for writing: " +
                            std::strerror(errno));
  }
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) {
    return Status::DataLoss("write failed for " + path + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status LoadModel(const std::string& path, Graph* g,
                 const ResourceLimits& limits) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  const std::streamoff end = f.tellg();
  if (end < 0) {
    return Status::DataLoss("cannot determine size of " + path + ": " +
                            std::strerror(errno));
  }
  const auto size = static_cast<std::size_t>(end);
  f.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(size));
  if (!f) {
    return Status::DataLoss("read failed for " + path + ": " +
                            std::strerror(errno));
  }
  return DeserializeGraph(bytes.data(), bytes.size(), g, limits);
}

}  // namespace lce
