// Systems microbenches (google-benchmark) backing the paper's
// systems-level arguments:
//  * SCADS graph-based selection vs. pairwise visual-similarity
//    selection (Section 3.1: "visual pairwise-comparisons become
//    intractable ... our approach is efficient and scales well"),
//  * single servable end-model inference vs. serving the whole taglet
//    ensemble (challenge 3: SLAs need a single compact model),
//  * core tensor/retrofit kernels.
#include <mutex>

#include <benchmark/benchmark.h>

#include "ensemble/ensemble.hpp"
#include "graph/retrofit.hpp"
#include "modules/module.hpp"
#include "nn/classifier.hpp"
#include "nn/sequential.hpp"
#include "scads/scads.hpp"
#include "scads/selection.hpp"
#include "obs/trace.hpp"
#include "serve/server_stats.hpp"
#include "synth/split.hpp"
#include "synth/tasks.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/sync.hpp"

namespace {

using namespace taglets;

synth::World& bench_world() {
  static synth::World world(synth::default_world_config(7));
  return world;
}

scads::Scads& bench_scads() {
  static std::unique_ptr<scads::Scads> instance = [] {
    auto& world = bench_world();
    auto s = std::make_unique<scads::Scads>(world.graph(), world.taxonomy(),
                                            world.scads_embeddings());
    util::Rng rng(1);
    s->install_dataset(
        world.make_auxiliary_corpus(world.auxiliary_concepts(), 8, rng));
    return s;
  }();
  return *instance;
}

synth::FewShotTask& bench_task() {
  static synth::FewShotTask task = [] {
    synth::Dataset pool = synth::build_task_pool(
        bench_world(), synth::officehome_product_spec(), 11);
    return synth::make_few_shot_task(pool, 1, 10, 101);
  }();
  return task;
}

// ---------------------------------------------------------- tensor core

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  tensor::Tensor a = tensor::Tensor::zeros(n, n);
  tensor::Tensor b = tensor::Tensor::zeros(n, n);
  for (float& x : a.data()) x = static_cast<float>(rng.normal());
  for (float& x : b.data()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// ------------------------------------------------- parallel scaling
// threads=1 vs threads=N through the shared util::Parallel layer; the
// same comparison works process-wide via TAGLETS_THREADS. Outputs are
// bitwise-identical at every setting (see util_test), so the only
// difference the threads argument makes is wall-clock time.

nn::Classifier make_serving_model(std::size_t classes);  // defined below

tensor::Tensor bench_random_matrix(std::size_t rows, std::size_t cols,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

/// Swap the global pool for the duration of one benchmark run.
class BenchParallelOverride {
 public:
  explicit BenchParallelOverride(util::Parallel* pool)
      : prev_(util::Parallel::exchange_global(pool)) {}
  ~BenchParallelOverride() { util::Parallel::exchange_global(prev_); }

 private:
  util::Parallel* prev_;
};

void BM_MatmulThreads(benchmark::State& state) {
  const std::size_t n = 512;
  util::Parallel pool(static_cast<std::size_t>(state.range(0)));
  BenchParallelOverride guard(&pool);
  tensor::Tensor a = bench_random_matrix(n, n, 3);
  tensor::Tensor b = bench_random_matrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ------------------------------------------------------ SIMD backends
// scalar vs the best native backend over the same kernels, pinned to
// the serial pool so the comparison isolates the inner loops.
// items_per_second is FLOP/s (2*n^3 per product); the committed
// BENCH_micro_core.json trajectory tracks the native/scalar ratio
// (>= 2x expected on AVX2 hardware).

/// Force one backend for the duration of a benchmark run (nullptr =
/// re-resolve the best native backend from the environment).
class BenchBackendOverride {
 public:
  explicit BenchBackendOverride(const tensor::backend::Kernels* kernels)
      : prev_(tensor::backend::exchange_active(kernels)) {}
  ~BenchBackendOverride() { tensor::backend::exchange_active(prev_); }

 private:
  const tensor::backend::Kernels* prev_;
};

void run_matmul_backend(benchmark::State& state,
                        const tensor::backend::Kernels* kernels) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Parallel pool(1);
  BenchParallelOverride pool_guard(&pool);
  BenchBackendOverride backend_guard(kernels);
  tensor::Tensor a = bench_random_matrix(n, n, 3);
  tensor::Tensor b = bench_random_matrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

void BM_MatmulBackendScalar(benchmark::State& state) {
  run_matmul_backend(state, tensor::backend::lookup("scalar"));
}
BENCHMARK(BM_MatmulBackendScalar)->Arg(128)->Arg(256)->Arg(512);

void BM_MatmulBackendNative(benchmark::State& state) {
  run_matmul_backend(state, nullptr);
}
BENCHMARK(BM_MatmulBackendNative)->Arg(128)->Arg(256)->Arg(512);

// Linear::backward's products on the RN50-S encoder (pixels 64 -> 160
// -> 32) at batch 128. matmul_nt forms dx = g * W^T: 128x160 * (64x160)^T
// and 128x32 * (160x32)^T. matmul_tn forms dW = x^T * g: (128x64)^T *
// 128x160 and (128x160)^T * 128x32. The benchmark argument indexes the
// shape; items_per_second is FLOP/s.
struct BackwardShape {
  std::size_t a_rows, a_cols, b_rows, b_cols;
  const char* label;
};
constexpr BackwardShape kNtShapes[] = {
    {128, 160, 64, 160, "128x160*(64x160)^T"},
    {128, 32, 160, 32, "128x32*(160x32)^T"}};
constexpr BackwardShape kTnShapes[] = {
    {128, 64, 128, 160, "(128x64)^T*128x160"},
    {128, 160, 128, 32, "(128x160)^T*128x32"}};

using Product = tensor::Tensor (*)(const tensor::Tensor&,
                                   const tensor::Tensor&);

/// `inner` is the shared dimension each output element sums over.
void run_backward_gemm(benchmark::State& state, Product product,
                       const BackwardShape& shape, std::size_t inner,
                       const tensor::backend::Kernels* kernels) {
  util::Parallel pool(1);
  BenchParallelOverride pool_guard(&pool);
  BenchBackendOverride backend_guard(kernels);
  tensor::Tensor a = bench_random_matrix(shape.a_rows, shape.a_cols, 5);
  tensor::Tensor b = bench_random_matrix(shape.b_rows, shape.b_cols, 6);
  const std::size_t outputs = product(a, b).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(product(a, b));
  }
  state.SetLabel(shape.label);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * outputs * inner));
}

void run_matmul_nt(benchmark::State& state,
                   const tensor::backend::Kernels* kernels) {
  const BackwardShape& shape = kNtShapes[state.range(0)];
  run_backward_gemm(state, tensor::matmul_nt, shape, shape.a_cols, kernels);
}

void run_matmul_tn(benchmark::State& state,
                   const tensor::backend::Kernels* kernels) {
  const BackwardShape& shape = kTnShapes[state.range(0)];
  run_backward_gemm(state, tensor::matmul_tn, shape, shape.a_rows, kernels);
}

void BM_MatmulNtBackendScalar(benchmark::State& state) {
  run_matmul_nt(state, tensor::backend::lookup("scalar"));
}
BENCHMARK(BM_MatmulNtBackendScalar)->Arg(0)->Arg(1);

void BM_MatmulNtBackendNative(benchmark::State& state) {
  run_matmul_nt(state, nullptr);
}
BENCHMARK(BM_MatmulNtBackendNative)->Arg(0)->Arg(1);

void BM_MatmulTnBackendScalar(benchmark::State& state) {
  run_matmul_tn(state, tensor::backend::lookup("scalar"));
}
BENCHMARK(BM_MatmulTnBackendScalar)->Arg(0)->Arg(1);

void BM_MatmulTnBackendNative(benchmark::State& state) {
  run_matmul_tn(state, nullptr);
}
BENCHMARK(BM_MatmulTnBackendNative)->Arg(0)->Arg(1);

void run_softmax_backend(benchmark::State& state,
                         const tensor::backend::Kernels* kernels) {
  util::Parallel pool(1);
  BenchParallelOverride pool_guard(&pool);
  BenchBackendOverride backend_guard(kernels);
  tensor::Tensor logits = bench_random_matrix(256, 65, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::softmax(logits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(logits.size()));
}

void BM_SoftmaxBackendScalar(benchmark::State& state) {
  run_softmax_backend(state, tensor::backend::lookup("scalar"));
}
BENCHMARK(BM_SoftmaxBackendScalar);

void BM_SoftmaxBackendNative(benchmark::State& state) {
  run_softmax_backend(state, nullptr);
}
BENCHMARK(BM_SoftmaxBackendNative);

void BM_EnsembleProbaThreads(benchmark::State& state) {
  util::Parallel pool(static_cast<std::size_t>(state.range(0)));
  BenchParallelOverride guard(&pool);
  std::vector<modules::Taglet> taglets;
  for (int t = 0; t < 4; ++t) {
    taglets.emplace_back("taglet-" + std::to_string(t),
                         make_serving_model(65));
  }
  util::Rng rng(4);
  tensor::Tensor batch =
      tensor::Tensor::zeros(256, bench_world().pixel_dim());
  for (float& x : batch.data()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ensemble::ensemble_proba(taglets, batch));
  }
}
BENCHMARK(BM_EnsembleProbaThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SoftmaxRows(benchmark::State& state) {
  util::Rng rng(3);
  tensor::Tensor logits = tensor::Tensor::zeros(256, 65);
  for (float& x : logits.data()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::softmax(logits));
  }
}
BENCHMARK(BM_SoftmaxRows);

// ------------------------------------------------- auxiliary selection

void BM_ScadsGraphSelection(benchmark::State& state) {
  auto& task = bench_task();
  scads::SelectionConfig config;
  config.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scads::select_auxiliary(bench_scads(), task, config));
  }
}
BENCHMARK(BM_ScadsGraphSelection);

/// The alternative SCADS argues against: score every auxiliary example
/// by visual similarity to the labeled shots, then take the top images.
void BM_VisualSimilaritySelection(benchmark::State& state) {
  auto& task = bench_task();
  auto& s = bench_scads();
  const auto concepts = s.concepts_with_data();
  for (auto _ : state) {
    std::vector<std::pair<float, scads::ExampleRef>> scored;
    util::Rng rng(1);
    for (graph::NodeId c : concepts) {
      for (const auto& ref : s.sample_examples(c, 8, rng)) {
        auto pixels = s.example_pixels(ref);
        float best = -2.0f;
        for (std::size_t i = 0; i < task.labeled_inputs.rows(); ++i) {
          best = std::max(best, tensor::cosine_similarity(
                                    pixels, task.labeled_inputs.row(i)));
        }
        scored.emplace_back(best, ref);
      }
    }
    std::partial_sort(scored.begin(),
                      scored.begin() + std::min<std::size_t>(1560, scored.size()),
                      scored.end(),
                      [](const auto& a, const auto& b) { return a.first > b.first; });
    benchmark::DoNotOptimize(scored);
  }
}
BENCHMARK(BM_VisualSimilaritySelection);

// ------------------------------------------------------------ retrofit

void BM_RetrofitEmbeddings(benchmark::State& state) {
  auto& world = bench_world();
  graph::RetrofitConfig config;
  config.iterations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::retrofit_embeddings(
        world.graph(), world.word_vectors(), config));
  }
}
BENCHMARK(BM_RetrofitEmbeddings)->Arg(5)->Arg(15);

// ------------------------------------------------------------- serving

nn::Classifier make_serving_model(std::size_t classes) {
  util::Rng rng(9);
  auto& world = bench_world();
  nn::Sequential encoder = nn::make_mlp({world.pixel_dim(), 160, 32}, rng);
  encoder.add(std::make_unique<nn::ReLU>());
  return nn::Classifier(encoder, 32, classes, rng);
}

void BM_ServeEndModel(benchmark::State& state) {
  nn::Classifier model = make_serving_model(65);
  util::Rng rng(4);
  tensor::Tensor example =
      bench_world().sample_image(10, synth::Domain::kProduct, rng);
  tensor::Tensor batch = example.reshape(1, example.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(batch));
  }
}
BENCHMARK(BM_ServeEndModel);

void BM_ServeFullEnsemble(benchmark::State& state) {
  std::vector<nn::Classifier> ensemble;
  for (int i = 0; i < 4; ++i) ensemble.push_back(make_serving_model(65));
  util::Rng rng(4);
  tensor::Tensor example =
      bench_world().sample_image(10, synth::Domain::kProduct, rng);
  tensor::Tensor batch = example.reshape(1, example.size());
  for (auto _ : state) {
    tensor::Tensor sum;
    for (auto& model : ensemble) {
      tensor::Tensor p = model.predict_proba(batch);
      if (sum.empty()) sum = std::move(p);
      else tensor::add_scaled_inplace(sum, p, 1.0f);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ServeFullEnsemble);

// -------------------------------------------------------- observability

/// Guard for the heartbeat stall: every fleet heartbeat reads the
/// shard's ServerStats, and a snapshot used to copy and sort every
/// latency ever recorded. On fixed-bucket histograms its cost must not
/// depend on how many responses came before it: /1000 and /1000000
/// stay within 1.5x of each other.
void BM_ServerStatsSnapshot(benchmark::State& state) {
  serve::ServerStats stats;
  util::Rng rng(17);
  serve::Response response;
  response.status = serve::Status::kOk;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    response.queue_ms = rng.uniform() * 5.0;
    response.total_ms = response.queue_ms + rng.uniform() * 50.0;
    stats.record_response(response);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats.snapshot());
  }
}
BENCHMARK(BM_ServerStatsSnapshot)->Arg(1000)->Arg(1000000);

/// Per-response recording cost, from one worker and from four workers
/// sharing one ServerStats as a server's batching workers do.
void BM_ServerStatsRecordResponse(benchmark::State& state) {
  static serve::ServerStats stats;
  util::Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  serve::Response response;
  response.status = serve::Status::kOk;
  response.queue_ms = rng.uniform();
  response.total_ms = response.queue_ms + rng.uniform();
  for (auto _ : state) {
    stats.record_response(response);
  }
}
BENCHMARK(BM_ServerStatsRecordResponse)->Threads(1)->Threads(4);

/// Cost of a TAGLETS_TRACE_SCOPE when tracing is off: the acceptance
/// bar for instrumenting hot paths is that this stays at ~one branch.
void BM_TraceScopeDisabled(benchmark::State& state) {
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    TAGLETS_TRACE_SCOPE("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceScopeDisabled);

// ------------------------------------------------------------ contracts

/// Guard for the TAGLETS_DCHECK* release contract: in release builds
/// (TAGLETS_DCHECK_ENABLED == 0) the loop body must cost the same as
/// BM_CheckBaseline — the condition is type-checked but never
/// evaluated, so a DCHECK in a hot loop is free.
void BM_CheckBaseline(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(i);
  }
}
BENCHMARK(BM_CheckBaseline);

void BM_CheckDisabled(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    ++i;
    TAGLETS_DCHECK_LT(i, i + 1);
    TAGLETS_DCHECK(i != 0, "loop counter wrapped at ", i);
    benchmark::DoNotOptimize(i);
  }
}
BENCHMARK(BM_CheckDisabled);

/// The always-on tier for comparison: one predictable branch per check.
void BM_CheckEnabled(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    ++i;
    TAGLETS_CHECK_LT(i, i + 1);
    TAGLETS_CHECK(i != 0, "loop counter wrapped at ", i);
    benchmark::DoNotOptimize(i);
  }
}
BENCHMARK(BM_CheckEnabled);

// util::Mutex vs the std::mutex it wraps. Benchmarks build with NDEBUG,
// which compiles the lock-order checker out entirely, so these two must
// read the same — the evidence behind sync.hpp's zero-release-overhead
// claim. In a Debug build the gap is the checker's bookkeeping cost.
void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_SyncMutexLockUnlock(benchmark::State& state) {
  util::Mutex mu("bench.sync", util::lockrank::kTest);
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
}
BENCHMARK(BM_SyncMutexLockUnlock);

void BM_StdScopedLock(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(mu);
    benchmark::DoNotOptimize(&mu);
  }
}
BENCHMARK(BM_StdScopedLock);

void BM_SyncScopedLock(benchmark::State& state) {
  util::Mutex mu("bench.sync_scoped", util::lockrank::kTest);
  for (auto _ : state) {
    util::MutexLock lock(mu);
    benchmark::DoNotOptimize(&mu);
  }
}
BENCHMARK(BM_SyncScopedLock);

}  // namespace

BENCHMARK_MAIN();
