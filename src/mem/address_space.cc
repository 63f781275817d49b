#include "mem/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace ordma::mem {

void AddressSpace::map(Vpn vpn, Pfn pfn, bool writable) {
  auto [e, inserted] = table_.try_emplace(vpn);
  ORDMA_CHECK_MSG(inserted, "vpn already mapped");
  e->pfn = pfn;
  e->present = true;
  e->writable = writable;
}

Pfn AddressSpace::unmap(Vpn vpn) {
  const PageEntry* e = table_.find(vpn);
  ORDMA_CHECK_MSG(e != nullptr, "unmap of unmapped vpn");
  ORDMA_CHECK_MSG(!e->pinned(), "unmap of pinned page");
  const Pfn f = e->pfn;
  table_.erase(vpn);
  return f;
}

const PageEntry* AddressSpace::lookup(Vpn vpn) const {
  return table_.find(vpn);
}

PageEntry* AddressSpace::lookup_mutable(Vpn vpn) { return table_.find(vpn); }

void AddressSpace::pin(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e && e->present, "pin of non-resident page");
  ++e->pin_count;
}

void AddressSpace::unpin(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e && e->pin_count > 0, "unbalanced unpin");
  --e->pin_count;
}

void AddressSpace::lock(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "lock of unmapped page");
  e->locked = true;
}

void AddressSpace::unlock(Vpn vpn) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "unlock of unmapped page");
  e->locked = false;
}

void AddressSpace::protect(Vpn vpn, bool writable) {
  auto* e = lookup_mutable(vpn);
  ORDMA_CHECK_MSG(e, "protect of unmapped page");
  e->writable = writable;
}

Result<Paddr> AddressSpace::translate(Vaddr va, bool for_write) const {
  const auto* e = lookup(page_of(va));
  if (!e || !e->present) return Errc::access_fault;
  if (for_write && !e->writable) return Errc::access_fault;
  return frame_base(e->pfn) + page_offset(va);
}

Status AddressSpace::write(Vaddr va, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t off = page_offset(va + done);
    const std::size_t chunk =
        std::min<std::size_t>(data.size() - done, kPageSize - off);
    auto pa = translate(va + done, /*for_write=*/true);
    if (!pa.ok()) return pa.status();
    phys_.write(pa.value(), data.subspan(done, chunk));
    done += chunk;
  }
  return Status::Ok();
}

Status AddressSpace::read(Vaddr va, std::span<std::byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t off = page_offset(va + done);
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - off);
    auto pa = translate(va + done, /*for_write=*/false);
    if (!pa.ok()) return pa.status();
    phys_.read(pa.value(), out.subspan(done, chunk));
    done += chunk;
  }
  return Status::Ok();
}

Status AddressSpace::pin_range(Vaddr va, Bytes len) {
  if (len == 0) return Status::Ok();
  const Vpn first = page_of(va);
  const Vpn last = page_of(va + len - 1);
  // Validate first so failure has no side effects.
  for (Vpn v = first; v <= last; ++v) {
    const auto* e = lookup(v);
    if (!e || !e->present) return Status(Errc::access_fault);
  }
  for (Vpn v = first; v <= last; ++v) pin(v);
  return Status::Ok();
}

void AddressSpace::unpin_range(Vaddr va, Bytes len) {
  if (len == 0) return;
  const Vpn first = page_of(va);
  const Vpn last = page_of(va + len - 1);
  for (Vpn v = first; v <= last; ++v) unpin(v);
}

namespace {

// A zero page stands in for frames never written (they read as zeroes).
constexpr std::byte kZeroPage[kPageSize] = {};

// The bytes from `va` to the end of its page, for reading. Untouched
// frames read as the zero page and stay unbacked.
Result<std::span<const std::byte>> read_span(const AddressSpace& as,
                                             Vaddr va) {
  auto pa = as.translate(va, /*for_write=*/false);
  if (!pa.ok()) return pa.status();
  const std::uint64_t off = page_offset(pa.value());
  const std::byte* frame = as.phys().frame_if_touched(frame_of(pa.value()));
  return std::span<const std::byte>((frame ? frame : kZeroPage) + off,
                                    kPageSize - off);
}

}  // namespace

Status copy(const AddressSpace& src, Vaddr src_va, AddressSpace& dst,
            Vaddr dst_va, Bytes len) {
  std::span<const std::byte> from;
  std::span<std::byte> to;
  while (len > 0) {
    if (from.empty()) {
      auto s = read_span(src, src_va);
      if (!s.ok()) return s.status();
      from = s.value();
    }
    if (to.empty()) {
      auto pa = dst.translate(dst_va, /*for_write=*/true);
      if (!pa.ok()) return pa.status();
      to = dst.phys().frame_data(frame_of(pa.value()))
               .subspan(page_offset(pa.value()));
    }
    const Bytes n = std::min<Bytes>({len, from.size(), to.size()});
    std::memcpy(to.data(), from.data(), n);
    from = from.subspan(n);
    to = to.subspan(n);
    src_va += n;
    dst_va += n;
    len -= n;
  }
  return Status::Ok();
}

Result<std::uint32_t> checksum(const AddressSpace& as, Vaddr va, Bytes len,
                               std::uint32_t state) {
  while (len > 0) {
    auto s = read_span(as, va);
    if (!s.ok()) return s.status();
    const auto chunk = s.value().first(std::min<Bytes>(len, s.value().size()));
    state = crc32_update(state, chunk);
    va += chunk.size();
    len -= chunk.size();
  }
  return state;
}

}  // namespace ordma::mem
