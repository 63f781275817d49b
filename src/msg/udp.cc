#include "msg/udp.h"

#include <array>

namespace ordma::msg {

namespace {
void put_u16(std::span<std::byte> v, std::size_t off, std::uint16_t x) {
  v[off] = static_cast<std::byte>(x >> 8);
  v[off + 1] = static_cast<std::byte>(x & 0xff);
}
std::uint16_t get_u16(std::span<const std::byte> v, std::size_t off) {
  return static_cast<std::uint16_t>(
      (std::to_integer<unsigned>(v[off]) << 8) |
      std::to_integer<unsigned>(v[off + 1]));
}
void put_u32(std::span<std::byte> v, std::size_t off, std::uint32_t x) {
  put_u16(v, off, static_cast<std::uint16_t>(x >> 16));
  put_u16(v, off + 2, static_cast<std::uint16_t>(x & 0xffff));
}
}  // namespace

UdpStack::UdpStack(host::Host& host) : host_(host), nic_(host.nic()) {
  nic_.set_eth_sink(
      [this](nic::Nic::EthDatagram d) { return on_datagram(std::move(d)); });
}

UdpStack::Socket& UdpStack::bind(std::uint16_t port) {
  auto& slot = sockets_[port];
  ORDMA_CHECK_MSG(!slot, "UDP port already bound");
  slot = std::make_unique<Socket>(*this, port);
  return *slot;
}

sim::Task<void> UdpStack::Socket::send_to(net::NodeId dst,
                                          std::uint16_t dst_port,
                                          net::Buffer payload,
                                          std::uint32_t rddp_xid,
                                          Bytes rddp_data_offset,
                                          Bytes rddp_data_len,
                                          bool gather_send,
                                          obs::OpId trace_op) {
  auto& host = stack_.host_;
  const auto& cm = host.costs();

  // Kernel entry + UDP/IP output processing, plus the fragmentation loop for
  // datagrams beyond one MTU (first fragment's cost is in udp_tx_dgram),
  // plus the user→kernel copy unless the NIC gathers from pinned pages.
  // One CPU hold split into labelled parts for attribution; total duration
  // is identical whether tracing is on or off.
  const Bytes total = kUdpHeader + payload.size();
  const auto nfrags = (total + cm.eth_mtu - 1) / cm.eth_mtu;
  Duration stack_cost = cm.udp_tx_dgram;
  if (nfrags > 1)
    stack_cost += cm.udp_tx_frag * static_cast<std::int64_t>(nfrags - 1);
  const Duration copy_cost =
      gather_send ? Duration{} : cm.copy_cost(payload.size());
  co_await host.cpu().consume_parts(
      trace_op, std::array<sim::Resource::Part, 3>{{
                    {cm.cpu_syscall, "io/syscall"},
                    {stack_cost, "pkt/udp_tx"},
                    {copy_cost, "byte/copy"},
                }});

  // Real UDP header, written in front of the payload where it lies; the
  // payload is copied only when another view shares it (a reply kept for
  // replay, a call kept for retransmission).
  net::Buffer dgram = net::Buffer::with_front(std::move(payload), kUdpHeader);
  const auto w = dgram.mutable_view();
  put_u16(w, 0, port_);
  put_u16(w, 2, dst_port);
  put_u32(w, 4, static_cast<std::uint32_t>(total));

  // Hand to the NIC; wire serialisation proceeds without the host CPU.
  host.engine().spawn(stack_.nic_.eth_send(
      dst, std::move(dgram), rddp_xid,
      rddp_xid ? kUdpHeader + rddp_data_offset : 0, rddp_data_len,
      trace_op));
}

sim::Task<void> UdpStack::on_datagram(nic::Nic::EthDatagram d) {
  const auto& cm = host_.costs();
  // Runs inside the coalesced receive interrupt: IP input per fragment plus
  // datagram-level socket delivery.
  const Bytes total = d.data.size() + d.rddp_data_len;
  const auto nfrags = (total + cm.eth_mtu - 1) / cm.eth_mtu;
  co_await host_.cpu_consume(
      cm.udp_rx_frag * static_cast<std::int64_t>(nfrags) + cm.udp_rx_dgram,
      d.trace_op, "pkt/udp_rx");

  const auto v = d.data.view();
  if (v.size() < kUdpHeader) co_return;  // malformed; drop
  const std::uint16_t src_port = get_u16(v, 0);
  const std::uint16_t dst_port = get_u16(v, 2);

  auto it = sockets_.find(dst_port);
  if (it == sockets_.end()) co_return;  // no listener; drop

  UdpDatagram out;
  out.src = d.src;
  out.src_port = src_port;
  out.data = d.data.slice(kUdpHeader, d.data.size() - kUdpHeader);
  out.rddp_placed = d.rddp_placed;
  out.rddp_data_len = d.rddp_data_len;
  out.trace_op = d.trace_op;
  it->second->rx_.send(std::move(out));
}

}  // namespace ordma::msg
