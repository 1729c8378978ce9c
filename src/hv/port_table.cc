#include "src/hv/port_table.h"

#include "src/machine/config.h"

namespace guillotine {

std::string_view PriorityClassName(PriorityClass c) {
  switch (c) {
    case PriorityClass::kBulk:
      return "bulk";
    case PriorityClass::kKill:
      return "kill";
  }
  return "unknown";
}

Result<u32> PortTable::Create(IoDram& io_dram, u32 device_index, DeviceType type,
                              PortRights rights, int owner_core, u32 slot_bytes,
                              u32 slot_count, PriorityClass priority) {
  const u32 port_id = next_port_id_;
  GLL_ASSIGN_OR_RETURN(PortRegion region,
                       io_dram.AllocatePortRegion(port_id, slot_bytes, slot_count));
  ++next_port_id_;
  PortBinding binding;
  binding.port_id = port_id;
  binding.device_index = device_index;
  binding.device_type = type;
  binding.owner_core = owner_core;
  binding.priority = priority;
  binding.rights = rights;
  binding.region = region;
  bindings_[port_id] = binding;
  return port_id;
}

PortBinding* PortTable::Find(u32 port_id) {
  const auto it = bindings_.find(port_id);
  return it == bindings_.end() ? nullptr : &it->second;
}

const PortBinding* PortTable::Find(u32 port_id) const {
  const auto it = bindings_.find(port_id);
  return it == bindings_.end() ? nullptr : &it->second;
}

Status PortTable::Revoke(u32 port_id) {
  PortBinding* binding = Find(port_id);
  if (binding == nullptr) {
    return NotFound("no such port");
  }
  binding->revoked = true;
  return OkStatus();
}

void PortTable::RevokeAll() {
  for (auto& [id, binding] : bindings_) {
    binding.revoked = true;
  }
}

std::vector<u32> PortTable::PortIds() const {
  std::vector<u32> out;
  out.reserve(bindings_.size());
  AppendPortIds(out);
  return out;
}

void PortTable::AppendPortIds(std::vector<u32>& out) const {
  for (const auto& [id, binding] : bindings_) {
    out.push_back(id);
  }
}

PortGuestInfo PortTable::GuestInfo(const PortBinding& binding) {
  PortGuestInfo info;
  info.request_ring_va = kIoDramBase + binding.region.request_ring;
  info.response_ring_va = kIoDramBase + binding.region.response_ring;
  info.doorbell_va = kIoDramBase + binding.region.doorbell;
  info.slot_bytes = binding.region.slot_bytes;
  info.slot_count = binding.region.slot_count;
  return info;
}

}  // namespace guillotine
