// Registration cache for user buffers (§5.1: "avoid registering
// application buffers with the NIC on each I/O by caching registrations"),
// shared by the DAFS client and the NFS hybrid client. Each entry is a
// page-aligned range exported read-write to the host's NIC and pinned for
// the client's lifetime.
#pragma once

#include <deque>

#include "common/result.h"
#include "host/host.h"
#include "nic/nic.h"
#include "sim/task.h"

namespace ordma::nas {

class RegistrationCache {
 public:
  struct Registered {
    mem::Vaddr host_base = 0;
    Bytes len = 0;
    crypto::Capability cap;
    mem::Vaddr nic_va(mem::Vaddr host_va) const {
      return cap.base + (host_va - host_base);
    }
  };

  explicit RegistrationCache(host::Host& host) : host_(host) {}

  // The registration covering [va, va + len): a cached one, or a new export
  // of the page-aligned range after the host CPU's registration cost.
  sim::Task<Result<Registered*>> ensure(mem::Vaddr va, Bytes len,
                                        obs::OpId op) {
    if (auto* r = find(va, len)) co_return r;
    const mem::Vaddr base = va & ~(mem::kPageSize - 1);
    const Bytes aligned_len =
        ((va + len + mem::kPageSize - 1) & ~(mem::kPageSize - 1)) - base;
    co_await host_.cpu_consume(host_.costs().memory_register, op,
                               "io/register");
    // Re-check after the await: a concurrent caller may have registered the
    // range while this one waited for the CPU (duplicate exports would
    // flood the NIC TLB with redundant pinned entries).
    if (auto* r = find(va, len)) co_return r;
    auto cap = host_.nic().export_segment(host_.user_as(), base, aligned_len,
                                          crypto::SegPerm::read_write,
                                          /*pin_now=*/true);
    if (!cap.ok()) co_return cap.status();
    regs_.push_back(Registered{base, aligned_len, cap.value()});
    co_return &regs_.back();
  }

  // Ranges exported so far.
  std::uint64_t registrations() const { return regs_.size(); }

 private:
  Registered* find(mem::Vaddr va, Bytes len) {
    for (auto& r : regs_) {
      if (va >= r.host_base && va + len <= r.host_base + r.len) return &r;
    }
    return nullptr;
  }

  host::Host& host_;
  std::deque<Registered> regs_;
};

}  // namespace ordma::nas
