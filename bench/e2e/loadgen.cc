// Load generation, all from one thread: a closed-loop caller on an
// ExecutionContext, and a fixed number of closed-loop clients through a
// serving::Server. Every request's state lives in a Sample allocated before
// the first send, and only the generator thread submits, so request ids
// are known before a request is published.
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "core/random.h"
#include "e2e.h"
#include "telemetry/clock.h"
#include "telemetry/tracer.h"

namespace lce::e2e {
namespace {

using telemetry::NowNanos;

void Span(const char* name, std::uint64_t t0, std::uint64_t t1,
          std::int64_t id) {
  telemetry::Tracer::Global().RecordCompleteWithArg(name, "bench", t0, t1,
                                                    "req", id);
}

// Completed request indices, handed from executor threads to the generator.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> done;  // guarded by mu
};

// Everything a request's callbacks need, reachable from one pointer so the
// std::function captures stay within the small-object buffer.
struct Slot {
  Sample* sample = nullptr;
  const LoadEnv* env = nullptr;
  Completions* completions = nullptr;
  std::size_t index = 0;
};

// Draws the request's resolution from the mix and one of its inputs.
void PickInput(const LoadEnv& env, Rng& rng, Sample* s) {
  const std::vector<int>& mix = env.workload->mix;
  s->hw = mix[rng.UniformInt(mix.size())];
  s->input = static_cast<int>(rng.UniformInt(kInputsPerResolution));
  s->input_data = env.reference->inputs.at(s->hw)[static_cast<std::size_t>(s->input)].data();
  s->expected = &env.reference->outputs.at(s->hw)[static_cast<std::size_t>(s->input)];
}

serving::Server::FillFn Fill(Slot* slot) {
  return [slot](ExecutionContext& ctx) {
    Sample& s = *slot->sample;
    const std::uint64_t t0 = NowNanos();
    Tensor in = ctx.input(0);
    LCE_CHECK(in.num_elements() ==
              static_cast<std::int64_t>(s.hw) * s.hw * in.shape().dim(3));
    std::memcpy(in.data<float>(), s.input_data, in.byte_size());
    const std::uint64_t t1 = NowNanos();
    s.io_ns += t1 - t0;
    if (slot->env->trace) Span(kSpanIo, t0, t1, s.id);
  };
}

serving::Server::DoneFn Done(Slot* slot) {
  return [slot](const Status& st, ExecutionContext* ctx) {
    Sample& s = *slot->sample;
    const std::uint64_t t0 = NowNanos();
    s.ok = st.ok() && ctx != nullptr;
    s.mismatch = s.ok && !OutputIs(*ctx, *s.expected);
    const std::uint64_t t1 = NowNanos();
    s.done_ns = t1;
    const LoadEnv& env = *slot->env;
    if (s.ok) {
      s.io_ns += t1 - t0;
      // One profile per batch Invoke: lane 0 reports it.
      if (env.profile != nullptr && ctx->io_lane() <= 0) env.profile->Add(*ctx);
      if (env.trace) {
        Span(kSpanIo, t0, t1, s.id);
        Span(kSpanRequest, s.sent_ns, t1, s.id);
      }
    }
    Completions& c = *slot->completions;
    std::lock_guard<std::mutex> lock(c.mu);
    c.done.push_back(slot->index);
    c.cv.notify_one();
  };
}

// Submits the slot's sample (its id already set) and records the Submit call.
std::shared_ptr<serving::Request> Submit(const LoadEnv& env, Slot* slot) {
  Sample& s = *slot->sample;
  const auto deadline = std::chrono::nanoseconds(
      static_cast<std::int64_t>(env.workload->deadline_ms * 1e6));
  s.submit_begin_ns = NowNanos();
  std::shared_ptr<serving::Request> handle =
      env.server->Submit(s.hw, Fill(slot), Done(slot), deadline);
  s.submit_end_ns = NowNanos();
  LCE_CHECK(handle->id() == s.id);
  if (env.trace) Span(kSpanSubmit, s.submit_begin_ns, s.submit_end_ns, s.id);
  return handle;
}

// Waits for a submitted request and copies the server's view of it.
void Collect(serving::Request& handle, Sample* s) {
  const Status st = handle.Wait();
  s->ok = s->ok && st.ok();
  s->queue_wait_ns = handle.queue_wait_ns();
  s->exec_ns = handle.exec_ns();
  if (s->done_ns == 0) s->done_ns = NowNanos();  // refused before any callback
}

}  // namespace

void WriteInput(ExecutionContext& ctx, const std::vector<float>& input) {
  Tensor in = ctx.input(0);
  LCE_CHECK(in.byte_size() == input.size() * sizeof(float));
  std::memcpy(in.data<float>(), input.data(), in.byte_size());
}

bool OutputIs(ExecutionContext& ctx, const std::vector<std::uint8_t>& expected) {
  const Tensor out = ctx.output(0);
  return out.byte_size() == expected.size() &&
         std::memcmp(out.raw_data(), expected.data(), expected.size()) == 0;
}

std::vector<Sample> RunClosedLoop(const LoadEnv& env, double seconds,
                                  std::int64_t* next_id) {
  ExecutionContext& ctx = *env.context;
  const int hw = env.workload->resolutions.front();
  const auto& inputs = env.reference->inputs.at(hw);
  const auto& outputs = env.reference->outputs.at(hw);
  std::vector<Sample> samples;
  // At most one request per 0.5 ms; far above any zoo model's rate.
  samples.reserve(static_cast<std::size_t>(seconds * 2000.0) + 16);
  const std::uint64_t end =
      NowNanos() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int k = 0; NowNanos() < end && samples.size() < samples.capacity(); ++k) {
    Sample& s = samples.emplace_back();
    s.id = (*next_id)++;
    s.hw = hw;
    s.input = k % kInputsPerResolution;
    s.expected = &outputs[static_cast<std::size_t>(s.input)];
    const std::uint64_t t0 = NowNanos();
    WriteInput(ctx, inputs[static_cast<std::size_t>(s.input)]);
    const std::uint64_t ta = NowNanos();
    if (env.trace) ctx.set_request_id(s.id);
    const Status st = ctx.Invoke(nullptr);
    const std::uint64_t tb = NowNanos();
    s.ok = st.ok();
    s.mismatch = s.ok && !OutputIs(ctx, *s.expected);
    const std::uint64_t t1 = NowNanos();
    s.sent_ns = t0;
    s.done_ns = t1;
    s.io_ns = (ta - t0) + (t1 - tb);
    if (env.trace) {
      Span(kSpanIo, t0, ta, s.id);
      Span(kSpanInvoke, ta, tb, s.id);
      Span(kSpanIo, tb, t1, s.id);
      Span(kSpanRequest, t0, t1, s.id);
    }
    if (env.profile != nullptr && s.ok) env.profile->Add(ctx);
    // A failed run leaves the arena unspecified (compiled_model.h).
    if (!s.ok) ctx.Reset();
  }
  return samples;
}

std::vector<Sample> RunClients(const LoadEnv& env, int clients, double seconds,
                               std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  // At most one request per 0.2 ms; far above any zoo model's rate.
  const auto capacity = static_cast<std::size_t>(seconds * 5000.0) + 64;
  std::vector<Sample> samples(capacity);
  std::vector<Slot> slots(capacity);
  std::vector<std::shared_ptr<serving::Request>> handles(capacity);
  Completions completions;
  const std::int64_t first_id = env.server->StatsSnapshot().next_request_id;
  std::size_t next = 0, outstanding = 0;
  const auto send = [&] {
    const std::size_t k = next++;
    Sample& s = samples[k];
    PickInput(env, rng, &s);
    s.id = first_id + static_cast<std::int64_t>(k);
    slots[k] = Slot{&s, &env, &completions, k};
    s.sent_ns = NowNanos();
    handles[k] = Submit(env, &slots[k]);
    ++outstanding;
  };
  const std::uint64_t end = NowNanos() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int c = 0; c < clients; ++c) send();
  std::vector<std::size_t> finished;
  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lock(completions.mu);
      completions.cv.wait(lock, [&] { return !completions.done.empty(); });
      finished.swap(completions.done);
    }
    for (const std::size_t k : finished) {
      Collect(*handles[k], &samples[k]);
      --outstanding;
      if (NowNanos() < end && next < capacity) send();
    }
    finished.clear();
  }
  samples.resize(next);
  return samples;
}

}  // namespace lce::e2e
