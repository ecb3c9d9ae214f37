// Shared implementation base for flow-modelled memory backends.
//
// Every concrete backend in this repo expresses its timing as Optane-
// style effective-bandwidth curves (OptaneParams) fed through the
// generic fixed-point solver in pmemsim::OptaneRateAllocator. DRAM and
// CXL backends derive their curve parameters from their own smaller
// parameter structs (see dram_device.hpp / cxl_device.hpp); what they
// share — engine, socket, allocator, flow resource, functional space —
// lives here. Backends that need a different allocator entirely can
// implement MemoryDevice directly.
#pragma once

#include <string>

#include "devices/memory_device.hpp"
#include "pmemsim/allocator.hpp"

namespace pmemflow::devices {

class FlowDevice : public MemoryDevice {
 public:
  [[nodiscard]] topo::SocketId socket() const noexcept override {
    return socket_;
  }
  [[nodiscard]] pmemsim::PmemSpace& space() noexcept override {
    return space_;
  }
  [[nodiscard]] const pmemsim::PmemSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] sim::Engine& engine() noexcept override { return engine_; }
  [[nodiscard]] const sim::FlowResourceStats& stats()
      const noexcept override {
    return resource_.stats();
  }
  /// The effective-bandwidth curves this backend charges against.
  [[nodiscard]] const pmemsim::BandwidthModel& model() const noexcept {
    return allocator_.model();
  }

 protected:
  /// `resource_prefix` names the flow resource "<prefix>-socket<N>";
  /// the name feeds trace output and must stay stable per backend.
  FlowDevice(sim::Engine& engine, topo::SocketId socket, Bytes capacity,
             pmemsim::OptaneParams curves,
             interconnect::UpiParams upi_params,
             const char* resource_prefix);

  [[nodiscard]] sim::FlowResource& resource() noexcept override {
    return resource_;
  }

 private:
  sim::Engine& engine_;
  topo::SocketId socket_;
  pmemsim::OptaneRateAllocator allocator_;
  sim::FlowResource resource_;
  pmemsim::PmemSpace space_;
};

}  // namespace pmemflow::devices
