// Port capabilities (paper section 3.3): "Each port is a capability that is
// granted by the software-level hypervisor and which enables a model core to
// interact with a specific instance of a specific device type." The table
// tracks rights, quotas, per-direction suspension (used by Probation), and
// byte accounting for the audit log.
#ifndef SRC_HV_PORT_TABLE_H_
#define SRC_HV_PORT_TABLE_H_

#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/machine/device.h"
#include "src/machine/io_dram.h"

namespace guillotine {

struct PortRights {
  bool can_send = true;   // model -> device requests
  bool can_recv = true;   // device -> model responses
  u64 byte_quota = 0;     // total bytes (both directions); 0 = unlimited
  // Opcode allow-list (seccomp-style capability narrowing): empty = every
  // opcode the device supports; otherwise requests with other opcodes are
  // rejected before reaching the device.
  std::vector<u32> allowed_opcodes;

  bool OpcodeAllowed(u32 opcode) const {
    if (allowed_opcodes.empty()) {
      return true;
    }
    for (u32 allowed : allowed_opcodes) {
      if (allowed == opcode) {
        return true;
      }
    }
    return false;
  }
};

// Servicing priority of a port. The kill path (control console, heartbeat,
// hv-escalation doorbells) must win *while the system is being flooded* —
// KILLBENCH's external-kill-switch feasibility condition — so kill-class
// rings are serviced before any bulk work within a pass, kill-class
// doorbells bypass both the LAPIC token bucket and service_slice_cycles
// deferral, and the rebalancer never hands a kill port to a backlogged core.
enum class PriorityClass : u8 {
  kBulk = 0,  // inference / NIC / storage traffic
  kKill = 1,  // containment-path traffic with guaranteed service
};

std::string_view PriorityClassName(PriorityClass c);

struct PortBinding {
  u32 port_id = 0;
  u32 device_index = 0;
  DeviceType device_type = DeviceType::kNic;
  int owner_core = 0;     // model core receiving completion interrupts
  // Hypervisor core that services this port: doorbell IRQs steer here and
  // only this core drains the rings. Assigned round-robin at CreatePort and
  // moved by explicit ownership handoffs (SoftwareHypervisor::HandoffPort).
  int owner_hv_core = 0;
  // Servicing priority; assigned at CreatePort and preserved across
  // ownership handoffs (the class belongs to the port, not the core).
  PriorityClass priority = PriorityClass::kBulk;
  PortRights rights;
  PortRegion region;

  bool revoked = false;
  // Probation-level suspensions (reversible, unlike revocation).
  bool send_suspended = false;
  bool recv_suspended = false;
  // Byte quota in force before probation clamped it; restored (and cleared)
  // by ClearProbationRestrictions so a port created with a real quota does
  // not come back from Probation unlimited.
  std::optional<u64> pre_probation_quota;

  u64 bytes_out = 0;  // model -> device payload bytes
  u64 bytes_in = 0;   // device -> model payload bytes
  u64 requests = 0;
  u64 rejected = 0;

  u64 quota_used() const { return bytes_out + bytes_in; }
};

// Guest-visible addresses for a port (what the model program needs to know).
struct PortGuestInfo {
  u64 request_ring_va = 0;
  u64 response_ring_va = 0;
  u64 doorbell_va = 0;
  u32 slot_bytes = 0;
  u32 slot_count = 0;
};

class PortTable {
 public:
  PortTable() = default;

  // Allocates IO DRAM rings and registers the binding. Port ids are dense
  // from zero (they index the doorbell page).
  Result<u32> Create(IoDram& io_dram, u32 device_index, DeviceType type,
                     PortRights rights, int owner_core, u32 slot_bytes,
                     u32 slot_count,
                     PriorityClass priority = PriorityClass::kBulk);

  PortBinding* Find(u32 port_id);
  const PortBinding* Find(u32 port_id) const;
  Status Revoke(u32 port_id);
  void RevokeAll();

  std::vector<u32> PortIds() const;
  void AppendPortIds(std::vector<u32>& out) const;
  size_t size() const { return bindings_.size(); }

  static PortGuestInfo GuestInfo(const PortBinding& binding);

 private:
  std::map<u32, PortBinding> bindings_;
  u32 next_port_id_ = 0;
};

}  // namespace guillotine

#endif  // SRC_HV_PORT_TABLE_H_
