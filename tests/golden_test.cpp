// Golden numerics: FNV-1a digests of what one OfficeHome-Product 1-shot
// run produces under a reduced lab, compared with the digests committed
// in tests/golden/digests.txt. The cross-backend and plan-equivalence
// tests compare two paths inside one build; this test compares a build
// with the one the digests were taken from, so a kernel rewrite that
// changes a single bit of training output fails here even when every
// path still agrees with every other.
//
// The pinned outputs cover the whole pipeline:
//   * rn50s_encoder    — the RN50-S backbone weights (pretraining);
//   * pseudo_labels    — the ensemble's soft labels (all four modules,
//                        including ZSL-KG over the reference head);
//   * end_model_logits — the distilled end model on the test split.
//
// Digests come in two flavors. GCC contracts a*b+c into one fused
// multiply-add (its C++ default is -ffp-contract=fast) when the target
// has FMA and the optimizer runs; only the tensor kernels are pinned
// with -ffp-contract=off, so the rest of the pipeline rounds by what
// the optimizer chose to contract, which varies with the flags.
//   * "nofma": a build for a target without FMA (Debug, and the
//     sanitizer jobs' RelWithDebInfo, which do not add -march=native):
//     nothing is contracted, so these digests hold at any -O level;
//   * "release": the Release flags (-O3 -march=native -funroll-loops)
//     on an FMA machine.
// Other FMA-target builds (say RelWithDebInfo plus -march=native) have
// no recorded digests and skip. Within a flavor the digests depend
// neither on the tensor backend nor on TAGLETS_THREADS.
//
// Re-baselining (only for a change that means to alter numerics, see
// docs/CORRECTNESS.md): run the test in a Release and in a Debug
// build; on mismatch each prints its flavor's replacement lines.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eval/lab.hpp"
#include "taglets/controller.hpp"
#include "test_support.hpp"

#ifndef TAGLETS_GOLDEN_FILE
#error "TAGLETS_GOLDEN_FILE must name the committed digest file"
#endif

namespace taglets {
namespace {

using tensor::Tensor;

/// 64-bit FNV-1a over a tensor's shape and the bit patterns of its
/// elements, so -0.0f vs +0.0f and NaN payloads all count.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void tensor(const Tensor& t) {
    const std::uint64_t rows = t.is_matrix() ? t.rows() : 1;
    const std::uint64_t cols = t.is_matrix() ? t.cols() : t.size();
    bytes(&rows, sizeof(rows));
    bytes(&cols, sizeof(cols));
    bytes(t.data().data(), t.size() * sizeof(float));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

#if !defined(__FMA__)
constexpr const char* kFlavor = "nofma";
#elif defined(TAGLETS_GOLDEN_RELEASE)
constexpr const char* kFlavor = "release";
#else
constexpr const char* kFlavor = nullptr;
#endif

/// name -> digest for one flavor, from "flavor name 0x..." lines; '#'
/// starts a comment line.
std::map<std::string, std::string> read_digests(const std::string& path,
                                                const std::string& flavor) {
  std::ifstream in(path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string line_flavor, name, digest;
    if (fields >> line_flavor >> name >> digest && line_flavor == flavor) {
      out[name] = digest;
    }
  }
  return out;
}

/// The reduced lab: the default world, with the pretraining and ZSL-KG
/// budgets of the test fixtures and no disk cache.
eval::LabConfig golden_lab_config() {
  eval::LabConfig config;
  config.world_seed = 7;
  config.aux_images_per_concept = 8;
  config.pretrain = testing::small_pretrain_config();
  config.zsl.epochs = 15;
  config.zsl.val_classes = 10;
  config.cache_dir = std::string{};
  return config;
}

TEST(Golden, OfficeHomeProductOneShotDigestsMatchCommitted) {
  if (kFlavor == nullptr) {
    GTEST_SKIP() << "no digests recorded for a non-Release build that "
                    "targets FMA (contraction depends on the flags)";
  }
  eval::Lab lab(golden_lab_config());
  const synth::FewShotTask task =
      lab.task(synth::officehome_product_spec(), /*shots=*/1, /*split=*/0);
  SystemConfig config;
  config.train_seed = 1;
  config.epoch_scale = 0.15;
  Controller controller(&lab.scads(), &lab.zoo(), &lab.zsl_engine());
  SystemResult result = controller.run(task, config);

  std::vector<std::pair<std::string, std::uint64_t>> got;
  {
    Fnv1a h;
    nn::Sequential encoder = lab.zoo().get(backbone::Kind::kRn50S).encoder;
    for (nn::Parameter* p : encoder.parameters()) h.tensor(p->value);
    got.emplace_back("rn50s_encoder", h.value());
  }
  {
    Fnv1a h;
    h.tensor(result.pseudo_labels);
    got.emplace_back("pseudo_labels", h.value());
  }
  {
    Fnv1a h;
    h.tensor(result.end_model.model().logits(task.test_inputs, false));
    got.emplace_back("end_model_logits", h.value());
  }

  const auto want = read_digests(TAGLETS_GOLDEN_FILE, kFlavor);
  std::string replacement;
  bool all_match = true;
  for (const auto& [name, digest] : got) {
    replacement += std::string(kFlavor) + " " + name + " " + hex(digest);
    replacement += "\n";
    const auto it = want.find(name);
    const bool match = it != want.end() && it->second == hex(digest);
    EXPECT_TRUE(match) << kFlavor << " " << name << ": got " << hex(digest)
                       << ", committed "
                       << (it == want.end() ? "<missing>" : it->second);
    all_match = all_match && match;
  }
  if (!all_match) {
    ADD_FAILURE() << "numerics changed. If the change is intended, replace "
                  << "the '" << kFlavor << "' lines of "
                  << TAGLETS_GOLDEN_FILE << " with:\n"
                  << replacement;
  }
}

}  // namespace
}  // namespace taglets
