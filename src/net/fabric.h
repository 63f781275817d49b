// The cluster fabric: a full-duplex crossbar switch like the paper's 2 Gb/s
// Myrinet switch. Every node has an uplink (node→switch) and a downlink
// (switch→node); the switch forwards cut-through with a fixed latency.
// Contention is physical: all traffic to one node serialises on that node's
// downlink, which is what congests the server port in the multi-client
// experiments (Fig. 7).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/engine.h"

namespace ordma::net {

struct FabricConfig {
  // Optional deterministic fault injection (not owned; must outlive the
  // fabric). Installed on each node's downlink so every frame passes the
  // injector exactly once end-to-end.
  fault::FaultInjector* injector = nullptr;
};

class Fabric {
 public:
  using DeliverFn = std::function<void(Packet)>;

  static constexpr Bandwidth kLinkBw = Gbps(2);  // paper: 2 Gb/s ports
  static constexpr Duration kCableLatency = nsec(200);  // per hop
  static constexpr Duration kSwitchLatency = nsec(500);  // cut-through

  Fabric(sim::Engine& eng, FabricConfig cfg = {}) : eng_(eng), cfg_(cfg) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Register a node; `sink` receives packets addressed to it.
  NodeId add_node(const std::string& name, DeliverFn sink) {
    const NodeId id = static_cast<NodeId>(ports_.size());
    auto port = std::make_unique<Port>();
    port->up =
        std::make_unique<Link>(eng_, kLinkBw, kCableLatency, name + ".up");
    port->down = std::make_unique<Link>(
        eng_, kLinkBw, kSwitchLatency + kCableLatency, name + ".down");
    port->down->set_sink(std::move(sink));
    port->down->set_fault_injector(cfg_.injector);
    // Uplink terminates at the switch, which forwards onto the destination
    // downlink.
    port->up->set_sink([this](Packet p) { forward(std::move(p)); });
    ports_.push_back(std::move(port));
    return id;
  }

  void send(Packet p) {
    ORDMA_CHECK(p.src < ports_.size());
    ORDMA_CHECK(p.dst < ports_.size());
    ports_[p.src]->up->send(std::move(p));
  }

  std::size_t num_nodes() const { return ports_.size(); }
  const Link& downlink(NodeId id) const { return *ports_[id]->down; }
  const Link& uplink(NodeId id) const { return *ports_[id]->up; }

 private:
  struct Port {
    std::unique_ptr<Link> up;
    std::unique_ptr<Link> down;
  };

  void forward(Packet p) {
    ORDMA_CHECK(p.dst < ports_.size());
    ports_[p.dst]->down->send(std::move(p));
  }

  sim::Engine& eng_;
  FabricConfig cfg_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace ordma::net
