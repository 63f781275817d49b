// Control words the NIC firmware attaches to link packets.
//
// GmCtrl models the GM protocol header (message sends, get/put requests and
// replies, NIC-to-NIC exception reports — §4.1). EthCtrl models the
// Ethernet-emulation framing used by the UDP/IP path, including the fields
// an RDDP-RPC capable NIC needs for header splitting (§3.2): which RPC
// transaction the payload belongs to and where the payload starts inside the
// datagram.
#pragma once

#include <cstdint>

#include "common/result.h"
#include "common/units.h"
#include "crypto/capability.h"
#include "mem/physical_memory.h"

namespace ordma::nic {

enum class GmOp : std::uint8_t {
  data = 0,       // ordinary message send
  get_req = 1,    // RDMA read request
  get_reply = 2,  // RDMA read data (or fault report)
  put_req = 3,    // RDMA write data
  put_ack = 4,    // RDMA write completion (or fault report)
};

struct GmCtrl {
  GmOp op = GmOp::data;
  std::uint64_t op_id = 0;   // initiator-chosen id matching reply to request
  std::uint32_t port = 0;    // destination GM port (data messages)
  std::uint32_t user_tag = 0;

  // get/put addressing (target NIC address space) + protection.
  mem::Vaddr remote_va = 0;
  Bytes rdma_len = 0;
  crypto::Capability cap;

  // Fault code carried by get_reply / put_ack (Errc::ok on success). This is
  // the paper's "recoverable RDMA failure semantics" extension to VI (§4.1).
  Errc fault = Errc::ok;
};

// Fragments carry no offset: a receiver places fragment i at i × eth_mtu
// (i × gm_mtu for GM), so both ends use one MTU.
struct EthCtrl {
  // RDDP-RPC framing (zero when not in use): the RPC transaction this
  // datagram answers and the offset where bulk data starts. A pre-posting
  // NIC uses these to split headers from payload and place the payload
  // directly into the tagged application buffer.
  std::uint32_t rddp_xid = 0;
  Bytes rddp_data_offset = 0;
  Bytes rddp_data_len = 0;
};

}  // namespace ordma::nic
