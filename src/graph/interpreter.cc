#include "graph/interpreter.h"

#include <utility>

#include "core/macros.h"

namespace lce {

Interpreter::Interpreter(const Graph& graph, InterpreterOptions options)
    : graph_(graph), options_(std::move(options)) {}

Status Interpreter::Prepare() {
  // Idempotent on success: the compiled model is immutable, so a second
  // Prepare has nothing to redo (and must not re-count packed-weight/arena
  // metrics).
  if (model_ != nullptr) return Status::Ok();
  CompileOptions copts;
  copts.num_threads = options_.num_threads;
  copts.kernel_profile = options_.kernel_profile;
  copts.limits = options_.limits;
  // Compile builds into a private instance and only publishes on success,
  // so a failed Prepare leaves this interpreter exactly as constructed and
  // a retry starts from a clean slate.
  LCE_RETURN_IF_ERROR(CompiledModel::Compile(graph_, std::move(copts), &model_));
  ExecutionOptions eopts;
  eopts.enable_profiling = options_.enable_profiling;
  eopts.observer = options_.observer;
  exec_ = std::make_unique<ExecutionContext>(model_, std::move(eopts));
  return Status::Ok();
}

Tensor Interpreter::input(int i) {
  LCE_CHECK(exec_ != nullptr &&
            "Interpreter::input requires a successful Prepare");
  return exec_->input(i);
}

Tensor Interpreter::output(int i) {
  LCE_CHECK(exec_ != nullptr &&
            "Interpreter::output requires a successful Prepare");
  return exec_->output(i);
}

int Interpreter::num_inputs() const {
  return static_cast<int>(graph_.input_ids().size());
}
int Interpreter::num_outputs() const {
  return static_cast<int>(graph_.output_ids().size());
}

void Interpreter::Invoke() {
  // Invoking an unprepared interpreter would execute with no kernels, no
  // arena and no validation -- fail loudly instead of corrupting memory.
  LCE_CHECK(exec_ != nullptr &&
            "Interpreter::Invoke requires a successful Prepare");
  exec_->Invoke();
}

const std::vector<OpProfile>& Interpreter::profile() const {
  static const std::vector<OpProfile> kEmpty;
  return exec_ != nullptr ? exec_->profile() : kEmpty;
}

std::size_t Interpreter::arena_bytes() const {
  return model_ != nullptr ? model_->arena_bytes() : 0;
}

gemm::Context& Interpreter::context() {
  LCE_CHECK(exec_ != nullptr &&
            "Interpreter::context requires a successful Prepare");
  return exec_->gemm_context();
}

}  // namespace lce
