#include "tensor/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

namespace taglets::tensor::backend {

namespace {

// nullptr = not yet resolved; resolution is idempotent, so a benign
// race between first callers just resolves twice to the same table.
std::atomic<const Kernels*> g_active{nullptr};

const Kernels* best_available() {
  if (const Kernels* k = detail::avx2_kernels()) return k;
  return &detail::scalar_kernels();
}

const Kernels* resolve_from_env() {
  const char* env = std::getenv("TAGLETS_TENSOR_BACKEND");
  if (env == nullptr || *env == '\0') return best_available();
  const std::string want(env);
  if (want == "native" || want == "auto") return best_available();
  if (const Kernels* k = lookup(want)) return k;
  // An explicitly requested backend that is missing here is a
  // deployment error; falling back silently would hide it.
  throw std::runtime_error("TAGLETS_TENSOR_BACKEND=" + want +
                           " is unknown or unavailable on this machine "
                           "(use: scalar | avx2 | native)");
}

}  // namespace

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_from_env();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

std::string active_name() { return active().name; }

std::vector<std::string> available() {
  std::vector<std::string> names{detail::scalar_kernels().name};
  if (const Kernels* k = detail::avx2_kernels()) names.emplace_back(k->name);
  return names;
}

const Kernels* lookup(const std::string& name) {
  if (name == detail::scalar_kernels().name) return &detail::scalar_kernels();
  if (const Kernels* k = detail::avx2_kernels(); k && name == k->name) {
    return k;
  }
  return nullptr;
}

const Kernels* exchange_active(const Kernels* kernels) {
  return g_active.exchange(kernels, std::memory_order_acq_rel);
}

}  // namespace taglets::tensor::backend
