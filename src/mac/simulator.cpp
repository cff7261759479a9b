#include "mac/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "carpool/bloom.hpp"
#include "mac/domain_sim.hpp"

// mac::Simulator is the stable single-BSS entry point; since the
// multi-BSS refactor the actual event engine lives in mac::DomainSim
// (src/mac/domain_sim.cpp) and Simulator is a thin facade over one
// domain. Validation happens here too so error behavior is unchanged
// for callers that never touch DomainSim directly.

namespace carpool::mac {

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {
  if (config_.num_stas == 0) {
    throw std::invalid_argument("Simulator: need at least one STA");
  }
  if (config_.scheme == Scheme::kCarpool &&
      config_.aggregation.max_receivers > kMaxReceivers) {
    throw std::invalid_argument(
        "Simulator: Carpool aggregates at most 8 receivers");
  }
  if (!config_.phy) {
    config_.phy = std::make_shared<AnalyticPhyModel>();
  }
}

void Simulator::add_flow(FlowSpec flow) {
  if (!flow.next) throw std::invalid_argument("add_flow: null generator");
  if (flow.src != kApNode && flow.dst != kApNode) {
    throw std::invalid_argument("add_flow: STA-to-STA flows unsupported");
  }
  const NodeId sta = flow.src == kApNode ? flow.dst : flow.src;
  if (sta == kApNode || sta > config_.num_stas) {
    throw std::invalid_argument("add_flow: STA id out of range");
  }
  flows_.push_back(std::move(flow));
}

SimResult Simulator::run() {
  DomainSim domain(config_);
  for (const FlowSpec& flow : flows_) {
    domain.add_flow(flow);
  }
  return domain.run();
}

}  // namespace carpool::mac
