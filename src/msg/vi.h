// VI-architecture-style user-level messaging over GM (the paper's VI-GM
// layer, §5): connected queue pairs with send/receive and RDMA, and two
// completion disciplines — polling (cheap, burns a little CPU per pickup)
// and blocking (interrupt + scheduler wakeup), whose gap is Table 2's
// 23 µs vs 53 µs round-trip.
#pragma once

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "host/host.h"
#include "net/packet.h"
#include "nic/nic.h"
#include "sim/task.h"

namespace ordma::msg {

enum class Completion { poll, block };

// A connected VI endpoint. Create pairs with ViListener::accept() on the
// passive side and vi_connect() on the active side.
class ViConnection {
 public:
  ViConnection(host::Host& host, net::NodeId peer_node,
               std::uint32_t local_port, std::uint32_t peer_port,
               Completion mode)
      : host_(host),
        nic_(host.nic()),
        peer_node_(peer_node),
        local_port_(local_port),
        peer_port_(peer_port),
        mode_(mode),
        rx_(nic_.open_port(local_port)) {}

  net::NodeId peer_node() const { return peer_node_; }

  // Post a message to the peer's receive queue. `trace_op` rides on the GM
  // message as trace context (obs/trace.h).
  sim::Task<void> send(net::Buffer msg, obs::OpId trace_op = 0) {
    return nic_.gm_send(peer_node_, peer_port_, 0, std::move(msg), trace_op);
  }

  // Take the next message (with its trace context); charges the
  // completion-pickup cost against the message's file op.
  sim::Task<nic::Nic::GmMessage> recv_msg() {
    auto msg = co_await rx_.recv();
    co_await charge_pickup(msg.trace_op);
    co_return msg;
  }
  sim::Task<net::Buffer> recv() {
    auto msg = co_await recv_msg();
    co_return std::move(msg.data);
  }

  // RDMA read through the connection (target side never sees an event —
  // §2.1: "Only the RDMA initiator receives notification of completed
  // events").
  sim::Task<Result<net::Buffer>> rdma_read(mem::Vaddr va, Bytes len,
                                           const crypto::Capability& cap,
                                           obs::OpId trace_op = 0) {
    auto res = co_await nic_.gm_get(peer_node_, va, len, cap, trace_op);
    co_await charge_pickup(trace_op);
    co_return res;
  }

 private:
  sim::Task<void> charge_pickup(obs::OpId trace_op) {
    const auto& cm = host_.costs();
    if (mode_ == Completion::poll) {
      co_await host_.cpu_consume(cm.vi_poll_pickup, trace_op, "io/pickup");
    } else {
      co_await host_.cpu_consume(cm.cpu_interrupt + cm.vi_block_wakeup,
                                 trace_op, "io/pickup");
    }
  }

  host::Host& host_;
  nic::Nic& nic_;
  net::NodeId peer_node_;
  std::uint32_t local_port_;
  std::uint32_t peer_port_;
  Completion mode_;
  sim::Channel<nic::Nic::GmMessage>& rx_;
};

// Passive-side connection acceptor bound to a well-known port.
class ViListener {
 public:
  ViListener(host::Host& host, std::uint32_t listen_port,
             Completion mode = Completion::block)
      : host_(host),
        mode_(mode),
        listen_rx_(host.nic().open_port(listen_port)) {}

  // Wait for a connect request and build the server-side endpoint.
  sim::Task<std::unique_ptr<ViConnection>> accept() {
    auto req = co_await listen_rx_.recv();
    const std::uint32_t client_port = req.user_tag;
    const std::uint32_t server_port = host_.nic().alloc_port();
    auto conn = std::make_unique<ViConnection>(host_, req.src, server_port,
                                               client_port, mode_);
    // Tell the client which port to talk to.
    co_await host_.nic().gm_send(req.src, client_port, server_port,
                                 net::Buffer());
    co_return conn;
  }

 private:
  host::Host& host_;
  Completion mode_;
  sim::Channel<nic::Nic::GmMessage>& listen_rx_;
};

// Active-side connect: returns a ready endpoint once the listener replies.
inline sim::Task<std::unique_ptr<ViConnection>> vi_connect(
    host::Host& host, net::NodeId server, std::uint32_t listen_port,
    Completion mode = Completion::poll) {
  const std::uint32_t client_port = host.nic().alloc_port();
  auto& rx = host.nic().open_port(client_port);
  co_await host.nic().gm_send(server, listen_port, client_port,
                              net::Buffer());
  auto reply = co_await rx.recv();
  co_return std::make_unique<ViConnection>(host, server, client_port,
                                           reply.user_tag, mode);
}

}  // namespace ordma::msg
