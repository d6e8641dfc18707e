#include "npb/multiprogram.hpp"

#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tlbmap {
namespace {

/// Address-space stride between co-scheduled apps. Workload arenas start at
/// 1 << 32 and the kernels allocate nowhere near 2^40 bytes, so displacing
/// app k by k * kAppSpace keeps every app's pages disjoint from every
/// other's.
constexpr VirtAddr kAppSpace = VirtAddr{1} << 40;

/// Displaces every access of an inner stream into its app's address space;
/// barriers and stream end pass through untouched.
class OffsetStream final : public ThreadStream {
 public:
  OffsetStream(std::unique_ptr<ThreadStream> inner, VirtAddr offset)
      : inner_(std::move(inner)), offset_(offset) {}

  std::size_t fill(std::span<TraceEvent> out) override {
    const std::size_t n = inner_->fill(out);
    for (TraceEvent& e : out.first(n)) {
      if (e.kind == TraceEvent::Kind::kAccess) e.access.addr += offset_;
    }
    return n;
  }

 private:
  std::unique_ptr<ThreadStream> inner_;
  VirtAddr offset_;
};

class MultiProgramWorkload final : public Workload {
 public:
  explicit MultiProgramWorkload(std::vector<std::unique_ptr<Workload>> apps)
      : apps_(std::move(apps)) {
    if (apps_.empty()) {
      throw std::invalid_argument("multiprogram: need at least one app");
    }
    int offset = 0;
    for (const auto& app : apps_) {
      if (!app) {
        throw std::invalid_argument("multiprogram: null app workload");
      }
      offsets_.push_back(offset);
      offset += app->num_threads();
    }
    num_threads_ = offset;
  }

  std::string name() const override {
    std::ostringstream os;
    os << "MP:";
    for (std::size_t k = 0; k < apps_.size(); ++k) {
      if (k > 0) os << "+";
      os << apps_[k]->name();
    }
    return os.str();
  }

  std::string description() const override {
    std::ostringstream os;
    os << "co-scheduled multiprogram of " << apps_.size()
       << " apps with disjoint address spaces";
    return os.str();
  }

  int num_threads() const override { return num_threads_; }

  std::unique_ptr<ThreadStream> stream(ThreadId t,
                                       std::uint64_t seed) const override {
    const std::size_t k = app_of(t);
    // Salt the seed per app so two instances of the same kernel draw
    // distinct random streams even for the same local thread id.
    const std::uint64_t app_seed =
        seed + static_cast<std::uint64_t>(k) * 0x51ED270B9ull;
    return std::make_unique<OffsetStream>(
        apps_[k]->stream(t - offsets_[k], app_seed),
        static_cast<VirtAddr>(k) * kAppSpace);
  }

  std::uint64_t accesses_of(ThreadId t) const override {
    const std::size_t k = app_of(t);
    return apps_[k]->accesses_of(t - offsets_[k]);
  }

 private:
  std::size_t app_of(ThreadId t) const {
    if (t < 0 || t >= num_threads_) {
      throw std::out_of_range("multiprogram: thread id out of range");
    }
    std::size_t k = apps_.size() - 1;
    while (offsets_[k] > t) --k;
    return k;
  }

  std::vector<std::unique_ptr<Workload>> apps_;
  std::vector<int> offsets_;
  int num_threads_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_multiprogram(
    std::vector<std::unique_ptr<Workload>> apps) {
  return std::make_unique<MultiProgramWorkload>(std::move(apps));
}

}  // namespace tlbmap
