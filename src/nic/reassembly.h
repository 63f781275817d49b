// Fragment reassembly, shared by every NIC receive path: GM messages, ORDMA
// get replies and put data, and Ethernet datagrams.
//
// Each fragment's payload is a view of the sender's message buffer
// (net/packet.h). The piece at offset 0 starts a view, and pieces that
// arrive in order, each continuing the last in the same buffer, extend it:
// the modelled NIC DMAs every fragment into one host buffer, and the
// simulator gets those bytes without copying them. A piece that does not
// continue the view — it arrived out of order, or the fault injector
// replaced its bytes with a damaged copy — switches the message to a
// zeroed buffer of its full size, into which the view so far and every
// later piece are copied. Bytes no piece covers stay zero there, like the
// hole a NIC leaves in a host buffer when it places part of a datagram
// elsewhere (RDDP).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "net/packet.h"

namespace ordma::nic {

class Reassembly {
 public:
  // Count fragment `p` towards its message; false for one admitted before
  // (a duplicated frame) or numbered outside the message, which the caller
  // drops.
  bool admit(const net::Packet& p) {
    if (seen_.empty()) {
      seen_.resize(p.frag_count, false);
      total_ = p.msg_total;
    }
    if (p.frag_index >= seen_.size() || seen_[p.frag_index]) return false;
    seen_[p.frag_index] = true;
    ++admitted_;
    return true;
  }

  // Every fragment admitted.
  bool complete() const { return admitted_ == seen_.size(); }

  // Put `piece` (a fragment's payload, or part of it) at byte `off` of the
  // message.
  void place(Bytes off, const net::Buffer& piece) {
    if (piece.empty()) return;
    if (!copied_ && off == bytes_.size()) {
      if (bytes_.empty()) {
        bytes_ = piece;
        return;
      }
      if (bytes_.extend(piece)) return;
    }
    ORDMA_CHECK(off <= total_ && piece.size() <= total_ - off);
    if (!copied_) {
      net::Buffer full = net::Buffer::alloc(total_);
      const auto v = bytes_.view();
      std::copy(v.begin(), v.end(), full.mutable_view().begin());
      bytes_ = std::move(full);
      copied_ = true;
    }
    const auto v = piece.view();
    std::copy(v.begin(), v.end(), bytes_.mutable_view().begin() + off);
  }

  // True once a piece had to be copied.
  bool copied() const { return copied_; }

  // The message, once complete: the joined view, which holds every placed
  // byte from offset 0 (all of them unless the caller placed some bytes
  // elsewhere), or the full-size copy.
  net::Buffer take() { return std::move(bytes_); }

 private:
  net::Buffer bytes_;
  Bytes total_ = 0;
  bool copied_ = false;
  std::size_t admitted_ = 0;
  std::vector<bool> seen_;
};

}  // namespace ordma::nic
