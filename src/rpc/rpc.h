// ONC-RPC-style remote procedure call over the UDP stack, with the
// RDDP-RPC extension of §3.2: a caller may pre-post an application buffer
// tagged by the call's transaction id, and a responding server marks where
// bulk data lies in its reply so the client NIC header-splits it directly
// into that buffer.
//
// Wire format (all XDR):
//   call:  xid u32 | type=0 u32 | proc u32 | trace u32 | cksum u32 | args...
//   reply: xid u32 | type=1 u32 | status u32 | trace u32 | cksum u32
//          | results... [| bulk data]
// The trace word carries the issuing file operation's trace-context id
// (obs/trace.h; 0 = untraced) so server-side work lands in the caller's
// span tree. Op ids are sequential from 1 and fit u32 at simulation scales.
// The cksum word is an end-to-end CRC-32 over the whole message with the
// cksum field itself skipped — for replies whose bulk was RDDP-placed, the
// client continues the checksum over the landed bytes — catching corruption
// that escapes the link-level CRC. A failed check is treated as a lost
// datagram and recovered by retransmission.
//
// Reliability (exercised by fault injection, free of cost otherwise): a
// client retransmits after a timeout with exponential backoff (RpcRetryPolicy;
// the default policy waits forever, preserving classic behaviour), matching
// replies by xid in a CallTable (rpc/call_table.h), and the server suppresses
// duplicate execution with a per-(client,port,xid) ReplyCache
// (rpc/reply_cache.h).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/result.h"
#include "host/host.h"
#include "msg/udp.h"
#include "rpc/call_table.h"
#include "rpc/reply_cache.h"
#include "rpc/xdr.h"
#include "sim/task.h"

namespace ordma::rpc {

inline constexpr std::uint32_t kRpcCall = 0;
inline constexpr std::uint32_t kRpcReply = 1;
inline constexpr Bytes kRpcHeaderBytes = 20;
inline constexpr Bytes kRpcCksumOffset = 16;

// Client-side timeout/retransmission policy. The default (timeout 0) waits
// forever and never retransmits — the classic lossless-fabric behaviour.
struct RpcRetryPolicy {
  Duration timeout{0};        // initial reply timeout; 0 = wait forever
  unsigned max_attempts = 1;  // total transmissions before giving up
  double backoff = 2.0;       // timeout multiplier per retransmission
  Duration max_timeout = msec(100);
};

// Lost-attempt totals a client keeps across all its requests.
struct RetransmitCounts {
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

// One request's place in its RpcRetryPolicy schedule, and the bookkeeping
// each lost attempt owes: the rpc_timeout / rpc_retransmit / rpc_giveup
// flight events, the "io/rpc_retransmit" span the tail explainer
// (obs/explain.h) charges, the trace sampler's retry mark and `counts`.
// Shared by the ONC RPC client and the DAFS client, whose retransmissions
// reuse the request id so the server's duplicate cache can replay.
class Retransmit {
 public:
  Retransmit(RpcRetryPolicy policy, host::Host& host, obs::Track& track,
             RetransmitCounts& counts, std::uint32_t xid, obs::OpId op)
      : policy_(policy),
        host_(host),
        track_(track),
        counts_(counts),
        xid_(xid),
        op_(op),
        timeout_(policy.timeout) {}

  // How long the current attempt waits for its reply (<= 0: forever, as
  // sim::Event::wait_for reads it).
  Duration timeout() const { return timeout_; }
  // The current attempt's wait, begun at `wait0`, timed out just now.
  void timed_out(SimTime wait0);
  // The current attempt failed. Returns false, recording the give-up, once
  // the policy allows no further attempt (a wait-forever policy never
  // retransmits); otherwise accounts for the retransmission and backs off.
  bool next();

 private:
  RpcRetryPolicy policy_;
  host::Host& host_;
  obs::Track& track_;
  RetransmitCounts& counts_;
  std::uint32_t xid_;
  obs::OpId op_;
  unsigned attempt_ = 1;
  Duration timeout_;
};

struct RpcReplyInfo {
  std::uint32_t status = 0;      // protocol-level status (Errc as u32)
  net::Buffer results;           // decoded results region (after header)
  net::Buffer raw;               // whole datagram (for checksum verification)
  bool rddp_placed = false;      // bulk data landed in the pre-posted buffer
  Bytes rddp_data_len = 0;
};

// Optional direct-placement request for one call.
struct Prepost {
  mem::AddressSpace* as = nullptr;
  mem::Vaddr va = 0;
  Bytes len = 0;
};

class RpcClient {
 public:
  RpcClient(host::Host& host, msg::UdpStack& stack, std::uint16_t local_port,
            RpcRetryPolicy retry = {})
      : host_(host),
        socket_(stack.bind(local_port)),
        retry_(retry),
        rpc_track_(host.name(), "rpc"),
        calls_(host.engine()) {
    host.engine().spawn(rx_loop());
  }
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Issue one call and await its reply. `trace_op` is marshalled into the
  // call header and echoed by the server's reply.
  sim::Task<Result<RpcReplyInfo>> call(net::NodeId server,
                                       std::uint16_t server_port,
                                       std::uint32_t proc, net::Buffer args,
                                       const Prepost* prepost = nullptr,
                                       obs::OpId trace_op = 0);

  std::uint64_t calls_issued() const { return calls_.issued(); }
  std::uint64_t retransmits() const { return rtx_.retransmits; }
  std::uint64_t timeouts() const { return rtx_.timeouts; }
  std::uint64_t cksum_drops() const { return cksum_drops_; }

 private:
  sim::Task<void> rx_loop();
  bool reply_checksum_ok(const RpcReplyInfo& info, const Prepost* prepost);

  host::Host& host_;
  msg::UdpStack::Socket& socket_;
  RpcRetryPolicy retry_;
  // Track for retransmit-backoff spans ("io/rpc_retransmit"): the dead
  // window between a lost attempt and its retransmission, which the tail
  // explainer (obs/explain.h) surfaces as a first-class cause.
  obs::Track rpc_track_;
  CallTable<RpcReplyInfo> calls_;  // by xid
  RetransmitCounts rtx_;
  std::uint64_t cksum_drops_ = 0;
};

// A server-side reply: results plus an optional bulk-data region that
// RDDP-capable client NICs may place directly.
struct RpcServerReply {
  std::uint32_t status = 0;
  XdrEncoder results;         // fixed-size result fields
  net::Buffer bulk;           // bulk data appended after results
  bool gather_send = true;    // NIC gathers bulk from pinned pages (no copy)
};

struct RpcCallCtx {
  net::NodeId client = net::kInvalidNode;
  std::uint16_t client_port = 0;
  std::uint32_t xid = 0;
  std::uint32_t proc = 0;
  obs::OpId trace_op = 0;  // decoded from the call header
  net::Buffer args;
};

class RpcServer {
 public:
  using Handler =
      std::function<sim::Task<RpcServerReply>(const RpcCallCtx&)>;

  RpcServer(host::Host& host, msg::UdpStack& stack, std::uint16_t port)
      : host_(host), socket_(stack.bind(port)) {
    host.engine().spawn(rx_loop());
  }
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void register_handler(std::uint32_t proc, Handler h) {
    handlers_[proc] = std::move(h);
  }

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t dup_replays() const { return dup_replays_; }
  std::uint64_t dup_drops() const { return dup_drops_; }
  std::uint64_t cksum_drops() const { return cksum_drops_; }

 private:
  // A sealed reply datagram (header | results | bulk) and how it was sent,
  // kept for replay to a retransmitted call.
  struct SentReply {
    net::Buffer wire;
    std::uint32_t rddp_xid = 0;
    Bytes data_offset = 0;
    Bytes data_len = 0;
    bool gather_send = false;
  };

  sim::Task<void> rx_loop();
  sim::Task<void> serve_one(msg::UdpDatagram d);

  host::Host& host_;
  msg::UdpStack::Socket& socket_;
  std::unordered_map<std::uint32_t, Handler> handlers_;
  ReplyCache<SentReply> replies_;  // by (client, port, xid)
  std::uint64_t served_ = 0;
  std::uint64_t dup_replays_ = 0;
  std::uint64_t dup_drops_ = 0;
  std::uint64_t cksum_drops_ = 0;
};

}  // namespace ordma::rpc
