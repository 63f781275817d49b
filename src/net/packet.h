// Wire units for the simulated fabric.
//
// Payload bytes are held in shared immutable buffers; fragments are
// zero-copy views (offset/length) into the message buffer, exactly like a
// NIC DMA-ing out of one host buffer, and a receiving NIC joins in-order
// fragments back into one view (nic/reassembly.h). Link-level header bytes
// are modelled as wire overhead (they cost bandwidth) without being
// materialised — protocol *contents* that matter (UDP and RPC headers) are
// real marshalled bytes inside the payload.
//
// Headers are written in front of the payload rather than the payload
// copied in behind them: every rep keeps Buffer::kHeadroom free bytes in
// front of the data alloc(), copy_of() and BufferBuilder make, and a view
// that no other view shares may grow into them (Buffer::prepend). A layer
// copies only when another view shares the bytes (Buffer::with_front).
//
// Buffer backing store is pooled: each Buffer points at a manually
// refcounted Rep (the simulation is single-threaded, so the count is a
// plain integer — no shared_ptr atomics), and Reps whose last reference
// dies return to a free list with their byte capacity intact. Hot paths
// allocate with Buffer::alloc(n), fill through mutable_view(), and reach
// steady state with zero heap allocations per packet. Under AddressSanitizer
// an idle rep's bytes are poisoned, so a view or span that outlives its rep
// faults instead of reading whichever message the rep carries next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/units.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ordma::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

// Immutable-once-shared byte buffer with cheap sub-views.
class Buffer {
  friend class BufferBuilder;

 public:
  // Free bytes in front of the data of every buffer alloc(), copy_of() and
  // BufferBuilder make: room for an RPC reply header and a few result words
  // (rpc/rpc.h) plus the UDP header (msg/udp.h).
  static constexpr std::size_t kHeadroom = 64;

  Buffer() = default;
  ~Buffer() { unref(); }

  Buffer(const Buffer& o) : rep_(o.rep_), off_(o.off_), len_(o.len_) {
    if (rep_) ++rep_->refs;
  }
  Buffer& operator=(const Buffer& o) {
    if (this != &o) {
      if (o.rep_) ++o.rep_->refs;
      unref();
      rep_ = o.rep_;
      off_ = o.off_;
      len_ = o.len_;
    }
    return *this;
  }
  Buffer(Buffer&& o) noexcept
      : rep_(std::exchange(o.rep_, nullptr)),
        off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      unref();
      rep_ = std::exchange(o.rep_, nullptr);
      off_ = std::exchange(o.off_, 0);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }

  // Fresh buffer of `len` zeroed bytes drawn from the pool; fill it through
  // mutable_view() before sharing. The allocation-free hot path.
  static Buffer alloc(std::size_t len) {
    Buffer b;
    b.rep_ = Pool::instance().acquire(kHeadroom + len);
    b.off_ = kHeadroom;
    b.len_ = len;
    return b;
  }

  static Buffer copy_of(std::span<const std::byte> data) {
    Buffer b;
    b.rep_ = Pool::instance().acquire(kHeadroom);
    b.rep_->bytes.insert(b.rep_->bytes.end(), data.begin(), data.end());
    b.off_ = kHeadroom;
    b.len_ = data.size();
    return b;
  }

  static Buffer take(std::vector<std::byte> data) {
    Buffer b;
    b.len_ = data.size();
    b.rep_ = Pool::instance().acquire_empty();
    b.rep_->bytes = std::move(data);
    return b;
  }

  // `body` grown `n` bytes to the front, for the caller to fill through
  // mutable_view(): in place when body.prepend(n) allows it, otherwise a
  // fresh buffer with body's bytes copied in behind n zeroed ones — the one
  // copy a header costs, paid only when another view shares the body (a
  // reply kept for replay, a call kept for retransmission).
  static Buffer with_front(Buffer body, std::size_t n) {
    if (body.prepend(n)) return body;
    Buffer out = alloc(n + body.size());
    if (!body.empty()) std::memcpy(out.data() + n, body.data(), body.size());
    return out;
  }

  Buffer slice(std::size_t offset, std::size_t len) const {
    ORDMA_CHECK(offset <= len_ && len <= len_ - offset);
    Buffer b = *this;
    b.off_ += offset;
    b.len_ = len;
    return b;
  }

  // Grow this view `n` bytes to the front, into its rep's headroom. Refused
  // (false, view unchanged) unless this is the rep's only view — so no
  // other view sees bytes change — and n bytes of headroom are left. The
  // grown bytes hold whatever the rep held there; the caller overwrites
  // them.
  bool prepend(std::size_t n) {
    if (!rep_ || rep_->refs != 1 || off_ < n) return false;
    off_ -= n;
    len_ += n;
    return true;
  }

  // Extend this view over `next` when `next` continues it in the same rep,
  // as the in-order fragments of one sent buffer do. False (both views
  // unchanged) otherwise.
  bool extend(const Buffer& next) {
    if (!rep_ || rep_ != next.rep_ || off_ + len_ != next.off_) return false;
    len_ += next.len_;
    return true;
  }

  std::span<const std::byte> view() const {
    if (!rep_) return {};
    return std::span<const std::byte>(data(), len_);
  }

  // Writable access; only valid while this Buffer is the sole reference
  // (i.e. before it has been sliced, copied or sent anywhere).
  std::span<std::byte> mutable_view() {
    if (!rep_) return {};
    ORDMA_CHECK_MSG(rep_->refs == 1, "Buffer::mutable_view on shared buffer");
    return std::span<std::byte>(data(), len_);
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  // Return the byte capacity of this thread's idle pooled reps to the
  // allocator; the reps stay pooled. A finished simulation calls this
  // (core::Cluster's teardown) so the capacity its buffers grew to is not
  // left scattered through the heap the next simulation allocates from.
  static void release_pool_capacity() { Pool::instance().release_capacity(); }

 private:
  struct Rep {
    std::vector<std::byte> bytes;
    std::uint32_t refs = 0;
    Rep* next_free = nullptr;
  };

  // Free list of Reps with their vector capacity retained; single-threaded
  // by design (thread_local guards against accidental cross-thread use).
  // Rep headers are carved from slabs owned by the pool, so steady state
  // never touches the process allocator for them and one worker thread's
  // reps never share an allocation (or a cache line) with another's.
  class Pool {
   public:
    static Pool& instance() {
      static thread_local Pool p;
      return p;
    }

    Rep* acquire(std::size_t len) {
      Rep* r = acquire_empty();
      // resize() zero-fills; capacity from the Rep's previous life is
      // reused, so steady state costs a memset but no allocation.
      r->bytes.resize(len);
      return r;
    }
    Rep* acquire_empty() {
      if (!free_) grow();
      Rep* r = free_;
      free_ = r->next_free;
      --free_count_;
      r->next_free = nullptr;
      set_idle(*r, false);
      r->bytes.clear();
      r->refs = 1;
      return r;
    }
    void release(Rep* r) {
      // Reps live in slabs and are never individually freed; past the cap,
      // drop the byte storage so a burst of huge messages doesn't pin its
      // capacity forever.
      if (free_count_ >= kMaxFree) {
        r->bytes = std::vector<std::byte>();
      }
      set_idle(*r, true);
      r->next_free = free_;
      free_ = r;
      ++free_count_;
    }
    void release_capacity() {
      for (Rep* r = free_; r != nullptr; r = r->next_free) {
        set_idle(*r, false);
        r->bytes = std::vector<std::byte>();
      }
    }

   private:
    static constexpr std::size_t kMaxFree = 4096;
    static constexpr std::size_t kSlabReps = 64;

    // Under AddressSanitizer, poison an idle rep's whole capacity and
    // unpoison it when the rep is drawn again; a no-op otherwise.
    static void set_idle(Rep& r, bool idle) {
#if defined(__SANITIZE_ADDRESS__)
      if (r.bytes.capacity() == 0) return;
      if (idle) {
        ASAN_POISON_MEMORY_REGION(r.bytes.data(), r.bytes.capacity());
      } else {
        ASAN_UNPOISON_MEMORY_REGION(r.bytes.data(), r.bytes.capacity());
      }
#else
      (void)r;
      (void)idle;
#endif
    }

    void grow() {
      slabs_.push_back(std::make_unique<Rep[]>(kSlabReps));
      Rep* slab = slabs_.back().get();
      for (std::size_t i = kSlabReps; i-- > 0;) {
        slab[i].next_free = free_;
        free_ = &slab[i];
      }
      free_count_ += kSlabReps;
    }

    Rep* free_ = nullptr;
    std::size_t free_count_ = 0;
    std::vector<std::unique_ptr<Rep[]>> slabs_;
  };

  std::byte* data() const { return rep_->bytes.data() + off_; }

  void unref() {
    if (rep_ && --rep_->refs == 0) Pool::instance().release(rep_);
  }

  Rep* rep_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

// Build a Buffer's bytes in place inside a pooled rep, behind the rep's
// headroom. The rep's vector keeps the capacity from its previous life, so
// steady-state message encoding (rpc/xdr.h XdrEncoder) allocates nothing,
// and finish() is zero-copy: the built bytes *are* the buffer. The previous
// encoder path (grow a fresh std::vector, move it into a rep with
// Buffer::take) paid a malloc for the vector and a free for the rep's
// displaced capacity on every message.
class BufferBuilder {
 public:
  BufferBuilder() {
    b_.rep_ = Buffer::Pool::instance().acquire(Buffer::kHeadroom);
    b_.off_ = Buffer::kHeadroom;
  }
  BufferBuilder(BufferBuilder&&) noexcept = default;
  BufferBuilder& operator=(BufferBuilder&&) noexcept = default;

  // Append. Only valid while the builder still owns its rep (i.e. before
  // finish()/take()). grow(n) returns the n new bytes for writing.
  std::byte* grow(std::size_t n) {
    auto& b = b_.rep_->bytes;
    const std::size_t at = b.size();
    b.resize(at + n);
    return b.data() + at;
  }
  void append(std::span<const std::byte> data) {
    auto& b = b_.rep_->bytes;
    b.insert(b.end(), data.begin(), data.end());
  }

  // The bytes built so far.
  std::size_t size() const { return b_.rep_->bytes.size() - b_.off_; }
  std::span<const std::byte> view() const {
    return std::span<const std::byte>(b_.rep_->bytes).subspan(b_.off_);
  }

  // Stamp the length and hand the buffer over; the builder is empty after.
  Buffer finish() {
    b_.len_ = size();
    return std::move(b_);
  }

  // Copy the built bytes out (for callers that want a plain vector); the
  // rep returns to the pool with its capacity.
  std::vector<std::byte> take() {
    const auto v = view();
    std::vector<std::byte> out(v.begin(), v.end());
    b_ = Buffer();
    return out;
  }

 private:
  Buffer b_;
};

// Link-level protocol carried by a packet; the receiving NIC firmware
// demuxes on this.
enum class Proto : std::uint8_t {
  gm = 0,        // GM messaging (sends, get/put requests & replies)
  ethernet = 1,  // Ethernet emulation (UDP/IP path)
};

// Inline, heap-free stand-in for the std::any that used to carry the
// link-protocol control words (nic/wire.h GmCtrl / EthCtrl). std::any
// heap-allocates anything larger than two pointers, which put a
// malloc/free pair on every control-carrying packet — profiling showed
// those allocations among the top costs of a protocol sweep. The control
// structs are small trivially-copyable PODs, so they live inline here; the
// type tag is the address of a per-type marker, checked on every get().
class CtrlAny {
 public:
  // Exactly sizeof(GmCtrl), the larger of the two control structs; the
  // static_assert in the constructor catches a control struct outgrowing
  // this.
  // Keeping it tight matters: Packet is captured by value in the fabric
  // delivery lambdas, which live inline in engine timer nodes — every
  // byte here is a byte of per-event cache footprint.
  static constexpr std::size_t kMaxSize = 88;

  CtrlAny() = default;

  // Implicit: a control word converts wherever a CtrlAny is wanted.
  template <typename T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, CtrlAny> &&
             std::is_trivially_copyable_v<std::remove_cvref_t<T>>)
  CtrlAny(const T& v) : tag_(tag_of<std::remove_cvref_t<T>>()) {  // NOLINT
    using U = std::remove_cvref_t<T>;
    static_assert(sizeof(U) <= kMaxSize);
    static_assert(alignof(U) <= alignof(std::max_align_t));
    std::memcpy(store_, &v, sizeof(U));
  }

  bool has_value() const { return tag_ != nullptr; }
  void reset() { tag_ = nullptr; }

  template <typename T>
  bool holds() const {
    return tag_ == tag_of<std::remove_cvref_t<T>>();
  }

  // By-value read (a memcpy): no lifetime games, and the control structs
  // are register-cheap to copy compared to the malloc they used to cost.
  template <typename T>
  T get() const {
    using U = std::remove_cvref_t<T>;
    ORDMA_CHECK_MSG(tag_ == tag_of<U>(), "CtrlAny: wrong control type");
    U out;
    std::memcpy(&out, store_, sizeof(U));
    return out;
  }

 private:
  template <typename T>
  static const void* tag_of() {
    return &kTag<T>;
  }
  template <typename T>
  static constexpr char kTag = 0;  // unique address per instantiation

  alignas(std::max_align_t) std::byte store_[kMaxSize];
  const void* tag_ = nullptr;
};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Proto proto = Proto::gm;

  // Wire overhead bytes in front of the payload (link + transport headers).
  Bytes header_bytes = 0;
  Buffer payload;

  // Fragmentation metadata (set by the sending NIC).
  std::uint64_t msg_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  Bytes msg_total = 0;  // payload bytes of the whole message

  // Trace context (obs/trace.h): the file-op id this packet works for.
  // Simulation metadata like `ctrl` — carried regardless of tracing state,
  // never counted against wire size, zero for untraced traffic.
  std::uint64_t trace_op = 0;

  // Link-protocol control words (GmCtrl / EthCtrl from nic/wire.h). Their
  // wire size is accounted in header_bytes; carrying them as a typed value
  // instead of re-marshalling keeps the firmware model readable. The NAS
  // protocols above RPC marshal real bytes.
  CtrlAny ctrl;

  Bytes wire_size() const { return header_bytes + payload.size(); }
};

}  // namespace ordma::net
